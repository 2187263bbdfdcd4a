"""HTTP client for the ``ppcmem2 serve`` daemon.

``ServiceClient`` wraps the small JSON protocol (stdlib ``http.client``
only), and is what ``ppcmem2 client`` drives so the familiar CLI verbs
can run against a warm daemon instead of paying cold-start exploration:

    ppcmem2 serve --port 8765 --cache verdicts.sqlite &
    ppcmem2 client run TEST.litmus        # synchronous, cache-backed
    ppcmem2 client submit suite/*.litmus --wait
    ppcmem2 client stats

Each calling thread keeps one persistent HTTP/1.1 connection to the
daemon and sends all of its requests on it, so a cache hit costs one
round trip rather than a TCP handshake and a fresh handler thread.
Threads sharing a client query concurrently, each on its own
connection.  When the daemon has closed an idle connection, the next
request on it fails before any response byte arrives; that request is
resent once on a new connection (the daemon answers every request it
reads, so it never saw this one).  ``close()`` (or leaving a ``with``
block) closes every connection; a later request reconnects.  Proxy
environment variables are not consulted.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from .daemon import DEFAULT_HOST, DEFAULT_PORT

#: How a *reused* connection fails when the daemon closed it while it
#: was idle: the request is resent once on a new connection.
_STALE_CONNECTION = (
    http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError,
)


class ServiceError(RuntimeError):
    """A non-2xx response from the daemon (carries the decoded body)."""

    def __init__(self, status: int, payload: Dict[str, Any]):
        super().__init__(
            f"service error {status}: {payload.get('error', payload)}"
        )
        self.status = status
        self.payload = payload


class ServiceClient:
    def __init__(
        self,
        url: Optional[str] = None,
        timeout: float = 600.0,
    ):
        self.base_url = (url or f"http://{DEFAULT_HOST}:{DEFAULT_PORT}").rstrip("/")
        self.timeout = timeout
        self._local = threading.local()
        #: Every thread's connection, for ``close``.
        self._connections: "weakref.WeakSet[http.client.HTTPConnection]" = (
            weakref.WeakSet()
        )
        self._lock = threading.Lock()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close every thread's connection (call with no request in flight)."""
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()

    # ------------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection, created on first use."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            parts = urlsplit(self.base_url)
            if parts.scheme not in ("http", "https"):
                raise ValueError(f"unsupported service URL {self.base_url!r}")
            factory = (
                http.client.HTTPSConnection
                if parts.scheme == "https"
                else http.client.HTTPConnection
            )
            connection = factory(
                parts.hostname, parts.port, timeout=self.timeout
            )
            self._local.connection = connection
            self._local.prefix = parts.path
            with self._lock:
                self._connections.add(connection)
        return connection

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._connection()
        target = self._local.prefix + path
        try:
            # A closed connection (new, or dropped after a response
            # marked ``Connection: close``) has no socket; sending on it
            # opens a fresh one.
            reused = connection.sock is not None
            try:
                connection.request(method, target, body, headers)
                response = connection.getresponse()
            except _STALE_CONNECTION:
                if not reused:
                    raise
                connection.close()
                connection.request(method, target, body, headers)
                response = connection.getresponse()
            status, data = response.status, response.read()
        except OSError:
            connection.close()
            raise
        except http.client.HTTPException as exc:
            # Not an ``OSError``: wrap it so every transport failure is one.
            connection.close()
            raise urllib.error.URLError(exc) from exc
        if status >= 400:
            text = data.decode("utf-8", "replace")
            try:
                error = json.loads(text)
            except ValueError:
                error = None
            if not isinstance(error, dict):
                error = {"error": text.strip() or response.reason}
            raise ServiceError(status, error)
        return json.loads(data.decode("utf-8"))

    # ------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/health")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/stats")

    def submit(
        self,
        tests: Sequence[Tuple[Optional[str], str]] = (),
        options: Optional[Dict[str, Any]] = None,
        gen: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Submit a batch of (name, source) tests and/or a generator spec."""
        body: Dict[str, Any] = {
            "tests": [
                {"name": name, "source": source} for name, source in tests
            ]
        }
        if options:
            body["options"] = options
        if gen:
            body["gen"] = gen
        return self._request("POST", "/v1/jobs", body)

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def results(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}/results")

    def wait(
        self, job_id: str, timeout: float = 600.0, poll: float = 0.2
    ) -> Dict[str, Any]:
        """Poll until the job finishes; returns its results payload."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.job(job_id)
            if status["state"] == "done":
                return self.results(job_id)
            if status["state"] == "failed":
                raise ServiceError(500, status)
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after {timeout}s"
                )
            time.sleep(poll)

    def query(
        self,
        source: str,
        name: Optional[str] = None,
        options: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Run one test synchronously (microseconds on a cache hit)."""
        body: Dict[str, Any] = {"source": source}
        if name:
            body["name"] = name
        if options:
            body["options"] = options
        return self._request("POST", "/v1/query", body)


def format_verdict(payload: Dict[str, Any]) -> List[str]:
    """Render one verdict payload in the ``ppcmem2 run`` output shape."""
    stats = payload.get("stats", {})
    lines = [
        f"Test {payload['name']}: {payload['status']}"
        + ("  [cached]" if payload.get("cached") else ""),
        f"States: {stats.get('states_visited', 0)}  "
        f"final: {stats.get('final_states', 0)}  "
        f"time: {stats.get('seconds', 0.0):.2f}s",
    ]
    for text, satisfied in payload.get("outcome_lines", []):
        marker = "*" if satisfied else " "
        lines.append(f"  {marker} {text}")
    if payload.get("witnessed"):
        finding = "witnessed"
    elif payload.get("complete", True):
        finding = "never satisfied"
    else:
        # A partial outcome set proves nothing about the states it
        # did not reach.
        finding = "not witnessed in the states explored (search incomplete)"
    lines.append(f"Condition ({payload.get('quantifier')}): {finding}")
    if payload.get("error"):
        lines.append(f"  !! {payload['error']}")
    return lines
