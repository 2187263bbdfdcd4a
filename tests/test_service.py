"""Service layer: engine façade, verdict cache, daemon, graceful shutdown.

The acceptance bar for the cache is *bit-identity*: a cache hit must be
indistinguishable (outcome sets, outcome lines, verdict, error text)
from the exploration it memoised, across processes and
``PYTHONHASHSEED`` values.  These tests pin that, plus the service
round-trip over real HTTP and the terminate-and-join pool cleanup the
daemon's SIGTERM path relies on.
"""

import os
import subprocess
import sys
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
print(cache_key(canonical, strategy="sharded", reduction="sleep",
                context_bound=3, max_states=1000, sail_backend="interp"))
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
            cache_key(canonical, strategy="sharded"),
            cache_key(canonical, reduction="sleep"),
            cache_key(canonical, context_bound=2),
            cache_key(canonical, max_states=100),
            cache_key(canonical, sail_backend="interp"),
        ]
        keys = [base] + variants
        assert len(set(keys)) == len(keys)

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
            EngineRequest(source=source, strategy="bounded", context_bound=2)
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
            _PoolHandle,
            _register_pool,
            shutdown_active_pools,
        )

        context = multiprocessing.get_context()
        pool = context.Pool(processes=1)
        children = list(pool._pool)
        pool.apply_async(time.sleep, (60,))
        _register_pool(_PoolHandle(pool=pool))

        assert shutdown_active_pools() == 1
        deadline = time.monotonic() + 10
        while any(p.is_alive() for p in children):
            assert time.monotonic() < deadline, "worker child leaked"
            time.sleep(0.05)
        # Registry is drained: a second sweep has nothing to do.
        assert shutdown_active_pools() == 0
