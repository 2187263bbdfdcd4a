"""Memoisation-key support for the fast state engine.

The exhaustive explorer deduplicates states through ``SystemState.key()``,
which used to rebuild (and re-hash) a large nested tuple on every call.
``CachedKey`` wraps a key tuple together with its precomputed hash so that

  * hashing a composite key touches only the cached hashes of its parts
    (instances, storage) instead of re-walking the whole structure, and
  * equality checks can short-circuit on object identity, which COW cloning
    makes common: an instance untouched since its last mutation shares its
    key object with every descendant state.

``intern_key`` additionally interns the keys of *finished* instruction
instances -- immutable from then on and heavily shared between converging
interleavings -- so that equal keys reached along different paths compare
by identity as well.
"""

from __future__ import annotations

from typing import Dict


class CachedKey:
    """An immutable key value paired with its precomputed hash."""

    __slots__ = ("value", "cached_hash")

    def __init__(self, value):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "cached_hash", hash(value))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("CachedKey is immutable")

    def __hash__(self) -> int:
        return self.cached_hash

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, CachedKey):
            return (
                self.cached_hash == other.cached_hash
                and self.value == other.value
            )
        return NotImplemented

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CachedKey({self.value!r})"


#: Bounded intern table: CachedKey -> the canonical (first-seen) CachedKey.
#: Keyed by the ``CachedKey`` itself rather than the raw tuple so the probe
#: reuses the hash computed at construction instead of re-walking the value.
_INTERN_LIMIT = 1 << 15
_interned: Dict[CachedKey, CachedKey] = {}


def intern_key(value) -> CachedKey:
    """Return a canonical ``CachedKey`` for ``value`` (bounded intern table)."""
    key = CachedKey(value)
    found = _interned.get(key)
    if found is not None:
        return found
    if len(_interned) >= _INTERN_LIMIT:
        _interned.clear()
    _interned[key] = key
    return key
