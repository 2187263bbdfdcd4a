"""Service layer: engine façade, verdict cache, daemon, graceful shutdown.

The acceptance bar for the cache is *bit-identity*: a cache hit must be
indistinguishable (outcome sets, outcome lines, verdict, error text)
from the exploration it memoised, across processes and
``PYTHONHASHSEED`` values.  These tests pin that, plus the service
round-trip over real HTTP and the terminate-and-join pool cleanup the
daemon's SIGTERM path relies on.
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.litmus.diy import generate
from repro.litmus.emit import emit_litmus
from repro.litmus.library import by_name
from repro.litmus.parser import parse_litmus
from repro.service import (
    EngineRequest,
    EnvelopeEngine,
    SCHEMA_VERSION,
    VerdictCache,
    cache_key,
)

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _canonical(name):
    return emit_litmus(parse_litmus(by_name(name).source))


def _comparable(payload):
    """A verdict payload minus fields a *fresh* run may legitimately vary.

    ``stats`` records wall-clock seconds, so two independent cold
    explorations differ there; everything else -- status, outcome sets,
    outcome lines, condition fields, error text, key -- must match
    exactly.
    """
    return {k: v for k, v in payload.items() if k != "stats"}


def _read_to_eof(sock):
    """Every byte the peer sends until it closes the connection."""
    received = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return received
        received += chunk


def _url(daemon):
    host, port = daemon.address
    return f"http://{host}:{port}"


def _serve_in_thread(daemon):
    """Run ``daemon`` (scheduler and HTTP loop) until it is shut down."""
    thread = threading.Thread(
        target=daemon.serve_forever,
        kwargs={"install_signal_handlers": False},
        daemon=True,
    )
    thread.start()
    return thread


@pytest.fixture()
def running_daemon():
    """A daemon serving HTTP on an ephemeral port, shut down afterwards."""
    from repro.service.daemon import ServiceDaemon

    daemon = ServiceDaemon(port=0)
    thread = _serve_in_thread(daemon)
    try:
        yield daemon
    finally:
        daemon.shutdown()
        thread.join(timeout=10)


class TestCacheKey:
    """The key is a pure, process-independent function of the query."""

    _SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.litmus.emit import emit_litmus
from repro.litmus.library import by_name
from repro.litmus.parser import parse_litmus
from repro.service import cache_key
canonical = emit_litmus(parse_litmus(by_name("MP").source))
print(cache_key(canonical))
print(cache_key(canonical, reduction="sleep", context_bound=3,
                max_states=1000))
"""

    def test_key_identical_across_hash_seeds(self, tmp_path):
        script = tmp_path / "key_probe.py"
        script.write_text(self._SCRIPT.format(src=_SRC))
        outputs = []
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, str(script)],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.append(proc.stdout.strip())
        assert outputs[0] == outputs[1]
        assert outputs[0]  # non-empty: the probe really ran
        # And the in-process value matches the subprocess values.
        assert outputs[0].splitlines()[0] == cache_key(_canonical("MP"))

    def test_every_parameter_changes_the_key(self):
        canonical = _canonical("MP")
        base = cache_key(canonical)
        variants = [
            cache_key(_canonical("SB")),
            cache_key(canonical, reduction="sleep"),
            cache_key(canonical, context_bound=2),
            cache_key(canonical, max_states=100),
        ]
        keys = [base] + variants
        assert len(set(keys)) == len(keys)

    def test_key_hashes_exactly_the_query_fields(self):
        """The key is SHA-256 over these six fields and no others: a
        field added or dropped changes every key."""
        import hashlib
        from dataclasses import asdict

        from repro.concurrency.params import DEFAULT_PARAMS

        canonical = _canonical("MP")
        payload = {
            "schema": SCHEMA_VERSION,
            "test": canonical,
            "reduction": "dpor",
            "context_bound": 3,
            "max_states": 1000,
            "params": asdict(DEFAULT_PARAMS),
        }
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert cache_key(
            canonical, reduction="dpor", context_bound=3, max_states=1000,
        ) == hashlib.sha256(encoded.encode("utf-8")).hexdigest()

    def test_symmetry_false_keys_as_omitted_and_true_is_refused(self):
        engine = EnvelopeEngine()
        source = by_name("MP").source
        omitted = engine.request_key(EngineRequest(source=source))
        assert omitted == engine.request_key(
            EngineRequest(source=source, symmetry=False)
        )
        assert omitted == engine.request_key(EngineRequest.from_options(
            source, options={"symmetry": False}
        ))
        with pytest.raises(ValueError, match="symmetry"):
            engine.request_key(EngineRequest(source=source, symmetry=True))

    def test_formatting_differences_do_not_split_entries(self):
        engine = EnvelopeEngine()
        source = by_name("MP").source
        mangled = (
            "\n".join(line + "   " for line in source.splitlines())
            + "\n\n\n"
        )
        assert engine.request_key(
            EngineRequest(source=source)
        ) == engine.request_key(EngineRequest(source=mangled))

    def test_request_parameters_reach_the_key(self):
        engine = EnvelopeEngine()
        source = by_name("MP").source
        base = engine.request_key(EngineRequest(source=source))
        assert base != engine.request_key(
            EngineRequest(source=source, max_states=50)
        )
        assert base != engine.request_key(
            EngineRequest(source=source, reduction="sleep")
        )
        assert base != engine.request_key(
            EngineRequest(source=source, context_bound=2)
        )


class TestVerdictCachePersistence:
    def test_round_trip_survives_reopen(self, tmp_path):
        path = str(tmp_path / "verdicts.sqlite")
        payload = {"status": "Allowed", "outcomes": [], "key": "k"}
        cache = VerdictCache(path)
        cache.put("k", "MP", payload)
        cache.close()

        reopened = VerdictCache(path)
        assert len(reopened) == 1
        assert "k" in reopened
        assert reopened.get("k") == payload
        stats = reopened.stats()
        assert stats["hits"] == 1 and stats["schema"] == SCHEMA_VERSION
        reopened.close()

    def test_stale_schema_rows_miss(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "verdicts.sqlite")
        cache = VerdictCache(path)
        cache.put("k", "MP", {"status": "Allowed"})
        cache.close()
        with sqlite3.connect(path) as connection:
            connection.execute("UPDATE verdicts SET schema = schema - 1")
            connection.commit()
        reopened = VerdictCache(path)
        assert reopened.get("k") is None
        assert reopened.stats()["misses"] == 1
        reopened.close()


class TestCorruptCacheRows:
    """An unreadable row is a miss that re-explores and overwrites it."""

    SOURCE = by_name("MP").source

    def _corrupt(self, cache, payload):
        cache._connection.execute("UPDATE verdicts SET payload = ?", (payload,))
        cache._connection.commit()

    @pytest.mark.parametrize(
        "payload",
        ["{not json", '{"status": "Allowed"}', "[1, 2]", "null"],
        ids=["garbage", "wrong-shape", "list", "null"],
    )
    def test_corrupt_row_is_a_miss_and_is_rewritten(self, payload):
        cache = VerdictCache()
        engine = EnvelopeEngine(cache=cache)
        request = EngineRequest(source=self.SOURCE, name="MP")
        cold = engine.run_request(request)
        self._corrupt(cache, payload)
        again = engine.run_request(request)
        assert not again.cached
        assert _comparable(again.to_payload()) == _comparable(
            cold.to_payload()
        )
        warm = engine.run_request(request)  # the row was overwritten
        assert warm.cached and warm.to_payload() == again.to_payload()
        stats = cache.stats()
        assert stats["errors"] == 1
        assert (stats["hits"], stats["misses"]) == (1, 2)

    def test_database_errors_degrade_to_uncached_verdicts(self):
        import sqlite3

        class Broken:
            def execute(self, *args):
                raise sqlite3.DatabaseError("database disk image is malformed")

            def commit(self):
                raise sqlite3.DatabaseError("database disk image is malformed")

            def close(self):
                pass

        cache = VerdictCache()
        engine = EnvelopeEngine(cache=cache)
        request = EngineRequest(source=self.SOURCE, name="MP")
        reference = engine.run_request(request)
        cache._connection = Broken()
        first = engine.run_request(request)  # get and put both fail
        second = engine.run_request(request)
        for verdict in (first, second):
            assert not verdict.cached
            assert _comparable(verdict.to_payload()) == _comparable(
                reference.to_payload()
            )
        stats = cache.stats()  # len() fails too: entries unknown
        assert stats["entries"] is None
        assert stats["errors"] == 5
        assert stats["misses"] == 3


class TestEngineCacheEquivalence:
    """Every cache hit is compared against a fresh exploration."""

    def _requests(self):
        requests = [
            EngineRequest(source=by_name(name).source, name=name)
            for name in ("MP", "MP+syncs", "SB", "LB+addrs")
        ]
        requests += [
            EngineRequest(source=test.source, name=test.name)
            for test in generate(0, 3, max_threads=2)
        ]
        return requests

    def test_hits_bit_identical_to_cold_and_fresh_runs(self):
        cached_engine = EnvelopeEngine(cache=VerdictCache())
        fresh_engine = EnvelopeEngine()
        for request in self._requests():
            cold = cached_engine.run_request(request)
            warm = cached_engine.run_request(request)
            assert not cold.cached and warm.cached
            # Hit vs the exploration it memoised: bit-identical,
            # stats included (the hit replays the stored record).
            assert warm.to_payload() == cold.to_payload()
            # Hit vs an independent cache-less exploration: identical
            # up to wall-clock stats.
            fresh = fresh_engine.run_request(request)
            assert _comparable(warm.to_payload()) == _comparable(
                fresh.to_payload()
            )
            assert warm.outcomes == fresh.outcomes

    def test_state_budget_verdicts_cached_under_their_own_key(self):
        cache = VerdictCache()
        engine = EnvelopeEngine(cache=cache)
        source = by_name("SB+syncs").source
        limited = EngineRequest(source=source, max_states=50)
        full = EngineRequest(source=source)

        cold = engine.run_request(limited)
        assert cold.status == "StateLimit" and not cold.complete
        warm = engine.run_request(limited)
        assert warm.cached and warm.to_payload() == cold.to_payload()

        unlimited = engine.run_request(full)
        assert not unlimited.cached  # different key: budget is hashed in
        assert unlimited.status in ("Allowed", "Forbidden", "Observed")
        assert len(cache) == 2


class TestRunBatch:
    def test_batch_matches_single_requests_and_reports_hits(self):
        requests = [
            EngineRequest(source=by_name(name).source, name=name)
            for name in ("MP", "SB", "LB+addrs")
        ]
        engine = EnvelopeEngine(cache=VerdictCache())
        cold = engine.run_batch(requests)
        assert (cold.hits, cold.misses) == (0, 3)
        assert [v.name for v in cold.verdicts] == ["MP", "SB", "LB+addrs"]

        warm = engine.run_batch(requests)
        assert (warm.hits, warm.misses) == (3, 0)
        assert all(v.cached for v in warm.verdicts)

        # The corpus-runner path (batch misses) and the single-request
        # path must produce identical verdicts, outcome lines included.
        single = EnvelopeEngine()
        for request, batched in zip(requests, cold.verdicts):
            alone = single.run_request(request)
            assert _comparable(batched.to_payload()) == _comparable(
                alone.to_payload()
            )


    @pytest.mark.parametrize(
        "options, reason",
        [
            (
                {"max_states": 100},
                "exceeded 100 states; increase max_states",
            ),
            ({"context_bound": 1}, "context bound 1 truncated the search"),
        ],
        ids=["state-budget", "context-bound"],
    )
    def test_incomplete_verdicts_say_why_on_both_paths(self, options, reason):
        """SB+syncs under context bound 1 stops at 469 states, far inside
        the default budget: its error must name the bound."""
        request = EngineRequest(source=by_name("SB+syncs").source, **options)
        alone = EnvelopeEngine().run_request(request)
        batched = EnvelopeEngine().run_batch([request], jobs=1).verdicts[0]
        for verdict in (alone, batched):
            assert not verdict.complete
            assert verdict.error == reason
        assert _comparable(alone.to_payload()) == _comparable(
            batched.to_payload()
        )


class TestJobBudget:
    """A worker budget below 1 is refused before anything is touched."""

    def test_run_batch_refuses_before_resolving_or_looking_up(
        self, monkeypatch
    ):
        cache = VerdictCache()
        engine = EnvelopeEngine(cache=cache)
        resolved = []
        resolve = engine.resolve
        monkeypatch.setattr(
            engine, "resolve", lambda r: resolved.append(r) or resolve(r)
        )
        request = EngineRequest(source=by_name("MP").source)
        with pytest.raises(ValueError, match="jobs must be >= 1, got 0"):
            engine.run_batch([request], jobs=0)
        assert resolved == []
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (0, 0, 0)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_daemon_refuses_at_construction(self, jobs, monkeypatch):
        from repro.service import daemon

        opened = []
        monkeypatch.setattr(
            daemon, "VerdictCache", lambda *args: opened.append(args)
        )
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            daemon.ServiceDaemon(port=0, jobs=jobs)
        assert opened == []  # no cache opened, no socket bound


class TestDaemonRoundTrip:
    @pytest.fixture()
    def service(self):
        import threading

        from repro.service.client import ServiceClient
        from repro.service.daemon import ServiceDaemon

        daemon = ServiceDaemon(port=0)
        daemon.start_scheduler()
        thread = threading.Thread(
            target=daemon._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        host, port = daemon.address
        try:
            yield ServiceClient(url=f"http://{host}:{port}")
        finally:
            daemon.shutdown()
            thread.join(timeout=10)

    def test_query_twice_second_from_cache(self, service):
        source = by_name("MP").source
        first = service.query(source, name="MP")
        second = service.query(source, name="MP")
        assert first["status"] == "Allowed" and not first["cached"]
        assert second["cached"]
        assert _comparable(
            {k: v for k, v in second.items() if k != "cached"}
        ) == _comparable({k: v for k, v in first.items() if k != "cached"})

    def test_submit_generated_batch_and_wait(self, service):
        submitted = service.submit(
            gen={"seed": 0, "size": 2, "max_threads": 2}
        )
        assert submitted["state"] == "queued" and submitted["tests"] >= 1
        results = service.wait(submitted["job"], timeout=300)
        assert results["state"] == "done"
        assert len(results["verdicts"]) == submitted["tests"]
        assert results["cache_misses"] == submitted["tests"]
        for verdict in results["verdicts"]:
            assert verdict["status"] in (
                "Allowed", "Forbidden", "Observed", "StateLimit",
            )

    def test_errors_are_structured(self, service):
        from repro.service.client import ServiceError

        with pytest.raises(ServiceError) as excinfo:
            service.query(by_name("MP").source, options={"bogus": 1})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            service.results("job-999")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            service.submit(tests=())  # empty job
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "source, message",
        [
            ("garbage", "bad header 'garbage'"),
            ("", "empty litmus file"),
            (
                by_name("MP").source.replace("stw r7,0(r1)", "frob r7,0(r1)"),
                "unknown mnemonic 'frob'",
            ),
        ],
        ids=["garbage", "empty", "unknown-mnemonic"],
    )
    def test_malformed_source_is_400(self, service, source, message):
        from repro.service.client import ServiceError

        # These used to drop the connection without any response.
        with pytest.raises(ServiceError) as excinfo:
            service.query(source)
        assert excinfo.value.status == 400
        assert message in excinfo.value.payload["error"]
        assert service.query(by_name("MP").source)["status"] == "Allowed"

    @pytest.mark.parametrize(
        "options",
        [
            {"max_states": "500"},
            {"max_states": 2.5},
            {"max_states": True},
            {"max_states": 0},
            {"context_bound": "2"},
            {"context_bound": -1},
            {"reduction": "fast"},
            {"strategy": "sharded"},
            {"strategy": "sequential"},
            {"symmetry": "yes"},
            {"symmetry": True},
            {"jobs": 2},
            {"shard_depth": 3},
        ],
        ids=[
            "max_states-str", "max_states-float", "max_states-bool",
            "max_states-zero", "context_bound-str", "context_bound-negative",
            "reduction-unknown", "strategy-sharded", "strategy-sequential",
            "symmetry-str",
            "symmetry-true", "jobs", "shard_depth",
        ],
    )
    def test_bad_option_is_400_before_anything_runs(self, service, options):
        from repro.service.client import ServiceError

        (option,) = options
        source = by_name("MP").source
        before = service.stats()["cache"]["entries"]
        with pytest.raises(ServiceError) as excinfo:
            service.query(source, options=options)
        assert excinfo.value.status == 400
        assert option in excinfo.value.payload["error"]
        # A batch is refused at submission, not accepted and failed later.
        with pytest.raises(ServiceError) as excinfo:
            service.submit(tests=[("MP", source)], options=options)
        assert excinfo.value.status == 400
        assert option in excinfo.value.payload["error"]
        stats = service.stats()
        assert stats["cache"]["entries"] == before
        assert stats["jobs"] == {}

    @pytest.mark.parametrize(
        "path, body, message",
        [
            ("/v1/jobs", {"gen": {"max_threads": 1}}, "'max_threads'"),
            ("/v1/jobs", {"gen": {"max_threads": 7}}, "'max_threads'"),
            ("/v1/jobs", {"gen": {"max_run": 0}}, "'max_run'"),
            ("/v1/jobs", {"gen": {"max_run": 5}}, "'max_run'"),
            ("/v1/jobs", {"gen": {"size": 0}}, "'size'"),
            ("/v1/jobs", {"gen": {"size": True}}, "'size'"),
            ("/v1/jobs", {"gen": {"seed": "0"}}, "'seed'"),
            ("/v1/jobs", {"gen": {"max_thread": 2}}, "unknown gen fields"),
            ("/v1/jobs", {"gen": 5}, "'gen' must be an object"),
            (
                "/v1/jobs",
                {"gen": {"size": 1000, "max_threads": 2, "max_run": 1}},
                "generator exhausted",
            ),
            ("/v1/jobs", [{"source": "x"}], "must be a JSON object"),
            ("/v1/jobs", {"tests": [{"source": 5}]}, "'source' must be a string"),
            ("/v1/jobs", {"tests": ["MP"]}, "'tests' must be a list of objects"),
            ("/v1/query", ["MP"], "must be a JSON object"),
            ("/v1/query", {"source": 5}, "'source' must be a string"),
            (
                "/v1/query",
                {"source": by_name("MP").source, "name": 5},
                "'name' must be a string or null",
            ),
        ],
        ids=[
            "gen-one-thread", "gen-seven-threads",
            "gen-run-zero", "gen-run-five", "gen-size-zero", "gen-size-bool",
            "gen-seed-str", "gen-unknown-field", "gen-not-object",
            "gen-exhausted", "jobs-array-body", "jobs-source-int",
            "jobs-tests-not-objects", "query-array-body", "query-source-int",
            "query-name-int",
        ],
    )
    def test_malformed_body_is_400_and_nothing_is_queued(
        self, service, path, body, message
    ):
        from repro.service.client import ServiceError

        before = service.stats()["cache"]["entries"]
        with pytest.raises(ServiceError) as excinfo:
            service._request("POST", path, body)
        assert excinfo.value.status == 400
        assert message in excinfo.value.payload["error"]
        stats = service.stats()
        assert stats["jobs"] == {}
        assert stats["cache"]["entries"] == before
        assert service.health()["ok"]

    @pytest.mark.parametrize("size", [2001, 10**6])
    def test_oversized_gen_is_400_without_generating(
        self, service, monkeypatch, size
    ):
        """The suite is generated inside the request handler: a size over
        the cap (2,000) is refused before the generator runs."""
        from repro.litmus import diy
        from repro.service.client import ServiceError

        calls = []
        monkeypatch.setattr(
            diy, "generate", lambda *args, **kwargs: calls.append(args)
        )
        started = time.perf_counter()
        with pytest.raises(ServiceError) as excinfo:
            service.submit(gen={"seed": 0, "size": size})
        assert time.perf_counter() - started < 5
        assert excinfo.value.status == 400
        assert "gen 'size' must be an integer from 1 to 2000" in (
            excinfo.value.payload["error"]
        )
        assert calls == []
        assert service.stats()["jobs"] == {}

    def test_stats_fields(self, service):
        assert set(service.stats()) == {
            "cache", "jobs", "queue_depth", "worker_budget", "connections",
        }

    def test_internal_error_is_500_and_the_daemon_keeps_serving(
        self, service, monkeypatch
    ):
        from repro.service.client import ServiceError
        from repro.service.engine import EnvelopeEngine

        def explode(self, request):
            raise RuntimeError("model crashed")

        monkeypatch.setattr(EnvelopeEngine, "run_request", explode)
        with pytest.raises(ServiceError) as excinfo:
            service.query(by_name("MP").source)
        assert excinfo.value.status == 500
        assert excinfo.value.payload == {"error": "RuntimeError: model crashed"}
        monkeypatch.undo()
        assert service.query(by_name("MP").source)["status"] == "Allowed"

    @staticmethod
    def _post_with_length(service, length: str, body: bytes = b""):
        """POST ``/v1/query`` declaring ``length``; (status, headers)."""
        import http.client
        from urllib.parse import urlsplit

        address = urlsplit(service.base_url)
        connection = http.client.HTTPConnection(
            address.hostname, address.port, timeout=5
        )
        try:
            connection.putrequest("POST", "/v1/query")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", length)
            connection.endheaders(body)
            response = connection.getresponse()
            response.read()
            return response.status, response.headers
        finally:
            connection.close()

    @pytest.mark.parametrize("length", ["-1", "abc", "1_0", "1.5"])
    def test_malformed_content_length_is_400(self, service, length):
        # A negative length used to read to EOF and hang the handler.
        status, headers = self._post_with_length(service, length)
        assert status == 400
        assert headers["Connection"] == "close"
        assert service.health()["ok"]

    def test_oversized_body_is_413_without_reading_it(self, service):
        from repro.service.daemon import MAX_BODY_BYTES

        # Only a few bytes follow: a daemon that tried to read the
        # declared length would block past the client's timeout.
        for length in (MAX_BODY_BYTES + 1, 10 ** 12):
            status, headers = self._post_with_length(
                service, str(length), b"{}"
            )
            assert status == 413
            assert headers["Connection"] == "close"
        assert service.health()["ok"]

    def test_body_at_the_cap_is_read(self, service):
        from repro.service.daemon import MAX_BODY_BYTES

        body = b"{}".ljust(MAX_BODY_BYTES)  # valid JSON, padded
        status, _headers = self._post_with_length(
            service, str(len(body)), body
        )
        assert status == 400  # read and parsed: no "source" field

    def test_chunked_body_is_411_and_closes_the_connection(self, service):
        from urllib.parse import urlsplit

        # Read as a zero-length body, this used to answer 400 and then
        # parse the chunk-size line as a second request.
        body = b'{"source": "garbage"}'
        address = urlsplit(service.base_url)
        with socket.create_connection(
            (address.hostname, address.port), timeout=5
        ) as sock:
            sock.sendall(
                b"POST /v1/query HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                + b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
            )
            received = _read_to_eof(sock)
        assert received.count(b"HTTP/1.") == 1
        head, _, payload = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 411 ")
        assert b"\r\nConnection: close" in head
        assert "Transfer-Encoding" in json.loads(payload)["error"]
        assert service.health()["ok"]

    def test_health_reports_an_uncountable_cache_as_null(
        self, service, monkeypatch
    ):
        import sqlite3

        def broken(self):
            raise sqlite3.DatabaseError("database disk image is malformed")

        # This used to escape do_GET and drop the connection unanswered.
        monkeypatch.setattr(VerdictCache, "__len__", broken)
        health = service.health()
        assert health["ok"] and health["cache_entries"] is None
        cache = service.stats()["cache"]
        assert cache["entries"] is None
        assert cache["errors"] == 2  # the health count, then the stats one

    def test_get_handler_error_is_500_and_the_connection_survives(
        self, service, monkeypatch
    ):
        from repro.service.client import ServiceError
        from repro.service.daemon import ServiceDaemon

        def explode(self):
            raise RuntimeError("stats crashed")

        monkeypatch.setattr(ServiceDaemon, "stats", explode)
        with pytest.raises(ServiceError) as excinfo:
            service.stats()
        assert excinfo.value.status == 500
        assert excinfo.value.payload == {"error": "RuntimeError: stats crashed"}
        monkeypatch.undo()
        assert service.health()["ok"]
        assert service.stats()["connections"] == 1


class TestPersistentConnections:
    """Each client thread keeps one connection; the daemon keeps it open."""

    SOURCE = by_name("MP").source

    def test_one_connection_serves_every_query(self, running_daemon):
        from repro.service.client import ServiceClient

        url = _url(running_daemon)
        before = running_daemon.stats()["connections"]
        with ServiceClient(url) as client:
            payloads = [client.query(self.SOURCE, name="MP") for _ in range(40)]
            assert client.stats()["connections"] == before + 1
        assert not payloads[0]["cached"]
        assert all(payload["cached"] for payload in payloads[1:])
        miss = dict(payloads[0], cached=True)
        for _ in range(3):
            with ServiceClient(url) as fresh:
                assert fresh.query(self.SOURCE, name="MP") == miss
        assert all(payload == miss for payload in payloads[1:])
        assert running_daemon.stats()["connections"] == before + 4

    def test_hits_do_not_wait_for_delayed_acks(self, running_daemon):
        from repro.service.client import ServiceClient

        with ServiceClient(_url(running_daemon)) as client:
            client.query(self.SOURCE)  # the miss, on the kept connection
            started = time.perf_counter()
            for _ in range(30):
                assert client.query(self.SOURCE)["cached"]
            elapsed = time.perf_counter() - started
        # With Nagle's algorithm on, each response's body waits ~40 ms
        # for the client's delayed ACK of its headers: >= 1.2 s here.
        assert elapsed < 0.6, f"30 cache hits took {elapsed:.3f}s"

    def test_idle_connection_closed_by_the_daemon_is_replaced(
        self, running_daemon, monkeypatch
    ):
        from repro.service.client import ServiceClient
        from repro.service.daemon import _Handler

        monkeypatch.setattr(_Handler, "timeout", 0.2)
        with ServiceClient(_url(running_daemon)) as client:
            assert not client.query(self.SOURCE)["cached"]
            before = running_daemon.stats()["connections"]
            time.sleep(0.5)  # the daemon closes the idle connection
            assert client.query(self.SOURCE)["cached"]
            assert running_daemon.stats()["connections"] == before + 1
            time.sleep(0.5)
            job = client.submit(tests=[("MP", self.SOURCE)])["job"]
            assert running_daemon.stats()["connections"] == before + 2
            assert client.wait(job, timeout=300)["cache_hits"] == 1
        # The resent submission was queued once.
        assert running_daemon.job_counts() == {"done": 1}

    def test_threads_sharing_a_client_query_concurrently(self, running_daemon):
        from repro.service.client import ServiceClient

        names = ["MP", "SB", "LB", "MP+syncs"]
        statuses, errors = {}, []
        before = running_daemon.stats()["connections"]
        with ServiceClient(_url(running_daemon)) as client:

            def ask(offset):
                try:
                    for name in names[offset:] + names[:offset]:
                        payload = client.query(by_name(name).source, name=name)
                        statuses[offset, name] = payload["status"]
                except Exception as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            threads = [
                threading.Thread(target=ask, args=(offset,))
                for offset in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        assert errors == []
        assert statuses == {
            (offset, name): by_name(name).architected
            for offset in range(4)
            for name in names
        }
        # One connection per thread.
        assert running_daemon.stats()["connections"] == before + 4

    def test_unreachable_daemon_is_an_os_error(self, capsys):
        from repro.service.client import ServiceClient
        from repro.tools.cli import main

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        url = f"http://127.0.0.1:{port}"
        with pytest.raises(OSError):
            ServiceClient(url).health()
        assert main(["client", "--url", url, "health"]) == 1
        assert "cannot reach daemon" in capsys.readouterr().err

    def test_request_after_shutdown_is_503_and_never_runs(self, capsys):
        from repro.service.client import ServiceClient, ServiceError
        from repro.service.daemon import ServiceDaemon

        daemon = ServiceDaemon(port=0)
        thread = _serve_in_thread(daemon)
        ran = []
        run_request = daemon.engine.run_request

        def recording(request):
            ran.append(request)
            return run_request(request)

        daemon.engine.run_request = recording
        with ServiceClient(_url(daemon)) as client:
            assert client.query(self.SOURCE)["status"] == "Allowed"
            daemon.shutdown()
            thread.join(timeout=10)
            # The kept-alive connection outlives the HTTP loop.
            with pytest.raises(ServiceError) as excinfo:
                client.query(self.SOURCE)
        assert excinfo.value.status == 503
        assert excinfo.value.payload == {"error": "daemon shutting down"}
        assert len(ran) == 1
        assert "Traceback" not in capsys.readouterr().err


class TestShutdownWithoutHttpLoop:
    def test_shutdown_returns_when_the_loop_never_ran(self):
        from repro.service.daemon import ServiceDaemon

        # ``socketserver`` used to wait forever for a loop to stop.
        daemon = ServiceDaemon(port=0)
        for _ in range(2):
            call = threading.Thread(target=daemon.shutdown, daemon=True)
            call.start()
            call.join(timeout=5)
            assert not call.is_alive()


class TestJobEviction:
    """Finished jobs are dropped oldest first; queued ones never are."""

    def test_oldest_finished_jobs_answer_404(self, monkeypatch):
        import threading

        from repro.service import daemon as daemon_module
        from repro.service.client import ServiceClient, ServiceError

        monkeypatch.setattr(daemon_module, "MAX_FINISHED_JOBS", 2)
        daemon = daemon_module.ServiceDaemon(port=0)
        run_batch = daemon.engine.run_batch
        calls = []

        def fail_first(requests, jobs=None):
            calls.append(len(requests))
            if len(calls) == 1:
                raise RuntimeError("injected failure")
            return run_batch(requests, jobs=jobs)

        daemon.engine.run_batch = fail_first
        thread = threading.Thread(
            target=daemon._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        host, port = daemon.address
        client = ServiceClient(url=f"http://{host}:{port}")
        try:
            source = by_name("MP").source
            ids = [
                client.submit(tests=[("MP", source)])["job"]
                for _ in range(4)
            ]
            # No scheduler yet: all four stay queued, twice the bound.
            assert [client.job(i)["state"] for i in ids] == ["queued"] * 4
            daemon.start_scheduler()
            client.wait(ids[-1], timeout=300)
            for job_id in ids[:2]:  # the failed job, then the oldest done
                for fetch in (client.job, client.results):
                    with pytest.raises(ServiceError) as excinfo:
                        fetch(job_id)
                    assert excinfo.value.status == 404
            assert [client.job(i)["state"] for i in ids[2:]] == ["done"] * 2
            assert client.stats()["jobs"] == {"done": 2}
        finally:
            daemon.shutdown()
            thread.join(timeout=10)


class TestPoolShutdown:
    def test_shutdown_active_pools_terminates_children(self):
        import multiprocessing

        from repro.concurrency.parallel import (
            _register_pool,
            shutdown_active_pools,
        )

        context = multiprocessing.get_context()
        pool = context.Pool(processes=1)
        children = list(pool._pool)
        pool.apply_async(time.sleep, (60,))
        _register_pool(pool)

        assert shutdown_active_pools() == 1
        deadline = time.monotonic() + 10
        while any(p.is_alive() for p in children):
            assert time.monotonic() < deadline, "worker child leaked"
            time.sleep(0.05)
        # Registry is drained: a second sweep has nothing to do.
        assert shutdown_active_pools() == 0
