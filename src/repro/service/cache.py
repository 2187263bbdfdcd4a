"""Persistent verdict cache for the envelope service.

Exploration of a single POWER litmus shape is provably expensive
(robustness against Power is PSPACE-complete), which makes the query
path an ideal memoisation target: a verdict, once computed, is a pure
function of the test and the exploration parameters.  This module is
that memo.

Cache key
---------

``cache_key`` hashes a *canonical* description of the query:

* the canonical litmus source -- ``litmus/emit.emit_litmus`` output,
  which is a fixed point of parse-then-emit, so formatting differences
  (whitespace, instruction-column alignment, condition parenthesisation)
  never split cache entries;
* the full parameter tuple: reduction, context bound, state budget,
  and the model-parameter fingerprint (``ModelParams``) -- nothing else
  changes what a query computes;
* ``SCHEMA_VERSION`` -- bumped whenever exploration *semantics* change
  (new transitions, changed reduction soundness argument, verdict
  vocabulary), which invalidates every stale entry at once.

The digest is SHA-256 over a sorted-key JSON encoding, so it is
byte-identical across processes, machines and ``PYTHONHASHSEED``
values (pinned by ``tests/test_service.py``).

Store
-----

``VerdictCache`` is an sqlite3-backed key -> verdict-JSON table, safe
for concurrent use from daemon handler threads (one connection behind a
lock; sqlite serialises writers anyway).  ``path=":memory:"`` gives an
ephemeral cache for tests and benchmarks.  Hit/miss counters are
in-memory per-process statistics, not persisted.

The cache is an accelerator, never a source of failures: a row that
cannot be read back (an sqlite error, undecodable JSON, a payload of the
wrong shape) is a miss, so the caller re-explores and its ``put``
overwrites the row; a failed ``put`` is skipped.  Both are counted in
``stats()["errors"]``.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
import time
from dataclasses import asdict
from typing import Any, Callable, Dict, Optional

from ..concurrency.params import DEFAULT_PARAMS, ModelParams

#: Bump when exploration semantics change (see SERVICE.md for the rules).
#: 2: ``reduction="dpor"`` landed, and the unique-state accounting
#: changed meaning under dpor (canonical keys).  Two key fields were
#: dropped later without a bump (SERVICE.md, "Cache key"): every key
#: changed once, no verdict changed meaning, and rows under the old
#: keys are never read again.
#: 3: a search the state budget stops returns its partial outcome set,
#: so a budget-limited verdict may be "Allowed" where it was an empty
#: "StateLimit"; the ``strategy`` field was dropped with the same bump.
#: ``ModelParams`` lost two fields later without a bump, for the same
#: reasons as above.
SCHEMA_VERSION = 3


def cache_key(
    canonical_source: str,
    reduction: str = "none",
    context_bound: Optional[int] = None,
    max_states: Optional[int] = None,
    params: ModelParams = DEFAULT_PARAMS,
) -> str:
    """The content hash identifying one (test, parameters) query."""
    payload = {
        "schema": SCHEMA_VERSION,
        "test": canonical_source,
        "reduction": reduction,
        "context_bound": context_bound,
        "max_states": max_states,
        "params": asdict(params),
    }
    encoded = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


class VerdictCache:
    """Persistent key -> verdict store with hit/miss accounting."""

    def __init__(self, path: str = ":memory:"):
        self.path = path
        self._lock = threading.Lock()
        self._connection = sqlite3.connect(path, check_same_thread=False)
        self._connection.execute(
            "CREATE TABLE IF NOT EXISTS verdicts ("
            "  key TEXT PRIMARY KEY,"
            "  schema INTEGER NOT NULL,"
            "  name TEXT,"
            "  payload TEXT NOT NULL,"
            "  created REAL NOT NULL"
            ")"
        )
        self._connection.commit()
        self.hits = 0
        self.misses = 0
        #: Rows that could not be read or written (each read one a miss).
        self.errors = 0

    # ------------------------------------------------------------------

    def get(
        self, key: str, decode: Optional[Callable[[Any], Any]] = None
    ) -> Any:
        """The stored verdict payload for ``key``, or ``None`` on a miss.

        ``decode``, when given, turns the payload into the returned value;
        a payload it rejects (``KeyError``, ``TypeError``, ``ValueError``,
        ``AttributeError``) is a wrong-shape row.  Wrong-shape and
        undecodable rows and sqlite errors are misses counted in
        ``errors``.  Entries written under a different ``SCHEMA_VERSION``
        are treated as misses (belt and braces: the version is also hashed
        into the key, so they should never collide in the first place).
        """
        try:
            with self._lock:
                row = self._connection.execute(
                    "SELECT schema, payload FROM verdicts WHERE key = ?",
                    (key,),
                ).fetchone()
        except sqlite3.DatabaseError:
            return self._unreadable()
        if row is None or row[0] != SCHEMA_VERSION:
            self.misses += 1
            return None
        try:
            value = json.loads(row[1])
            if decode is not None:
                value = decode(value)
        except (KeyError, TypeError, ValueError, AttributeError):
            return self._unreadable()
        self.hits += 1
        return value

    def _unreadable(self) -> None:
        self.errors += 1
        self.misses += 1
        return None

    def put(self, key: str, name: str, payload: Dict[str, Any]) -> None:
        """Store (or overwrite) the verdict payload for ``key``.

        An sqlite error skips the store (counted in ``errors``): the
        caller's verdict stands, it is just not memoised.
        """
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        try:
            with self._lock:
                self._connection.execute(
                    "INSERT OR REPLACE INTO verdicts "
                    "(key, schema, name, payload, created) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (key, SCHEMA_VERSION, name, encoded, time.time()),
                )
                self._connection.commit()
        except sqlite3.DatabaseError:
            self.errors += 1

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._connection.execute(
                "SELECT COUNT(*) FROM verdicts"
            ).fetchone()
        return count

    def __contains__(self, key: str) -> bool:
        with self._lock:
            row = self._connection.execute(
                "SELECT 1 FROM verdicts WHERE key = ?", (key,)
            ).fetchone()
        return row is not None

    def entries(self) -> Optional[int]:
        """The number of stored rows, or ``None`` (counted in ``errors``)
        when sqlite cannot count them."""
        try:
            return len(self)
        except sqlite3.DatabaseError:
            self.errors += 1
            return None

    def stats(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "entries": self.entries(),
            "hits": self.hits,
            "misses": self.misses,
            "errors": self.errors,
            "schema": SCHEMA_VERSION,
        }

    def close(self) -> None:
        with self._lock:
            self._connection.close()
