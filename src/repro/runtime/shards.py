"""Lock-protected verdict storage shared across relevance oracles.

The memoization layer of :class:`~repro.runtime.cache.RelevanceOracle` keeps
one LRU map per verdict kind.  Two things sit here rather than in the
oracle:

* :class:`LRUCache` — the LRU map itself, guarded by an internal lock so a
  caller probing one oracle from several threads cannot corrupt the recency
  order (``OrderedDict.move_to_end`` during ``popitem`` is not atomic);
* :class:`SharedVerdictStore` — the delta-inheritable LTR history and witness
  paths for one ``(query, schema)`` pair, shareable across any number of
  oracles (the query server keeps one per distinct query, so every
  :meth:`~repro.runtime.server.QueryServer.answer` call inherits the earlier
  calls' work).  Sharing is scoped to *identical* Boolean queries: the
  verdicts are functions of the query, so nothing weaker is sound.

Locks protect structural integrity only.  Verdicts are deterministic
functions of the configuration content, so two threads racing to compute the
same entry both write the same value — the last writer wins harmlessly.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Optional

from repro.exceptions import QueryError
from repro.queries.certain import CertaintyFixpoint
from repro.schema import Schema

__all__ = ["LRUCache", "SharedVerdictStore"]


class LRUCache:
    """A small LRU map with hit/miss accounting, safe under concurrent use.

    A single internal lock serialises structural mutation (lookup refreshes
    recency, so even ``get`` mutates).
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, default: object = None) -> object:
        """Look up ``key``, refreshing its recency on a hit."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: object) -> None:
        """Store ``key`` and evict the least-recently-used overflow."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if self._max_entries is not None:
                while len(self._entries) > self._max_entries:
                    self._entries.popitem(last=False)

    def discard(self, key: Hashable) -> None:
        """Drop ``key`` if present (no recency or hit/miss accounting)."""
        with self._lock:
            self._entries.pop(key, None)

    def reset_stats(self) -> None:
        """Zero the hit/miss gauges (entries are kept).

        :meth:`RuntimeMetrics.reset` calls this on registered caches so a
        post-reset snapshot starts from zero instead of carrying the
        pre-reset probe history.
        """
        with self._lock:
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict:
        """Hit/miss gauges: ``{hits, misses, entries, hit_rate}``.

        ``hit_rate`` is ``None`` until the cache has been probed at least
        once (0/0 is unknown, not zero).
        """
        with self._lock:
            hits, misses, entries = self.hits, self.misses, len(self._entries)
        probes = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "entries": entries,
            "hit_rate": (hits / probes) if probes else None,
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries


class SharedVerdictStore:
    """Incremental LTR state shared by every oracle over one (query, schema).

    Holds the two caches whose contents transfer soundly *across* oracle
    instances: the per-access LTR history (verdict + dependency snapshot,
    inheritable whenever :meth:`ConfigurationSnapshot.delta_safe` accepts the
    new configuration) and the captured witness paths (revalidatable in
    O(|path|) at any configuration).  Both are keyed by the access alone —
    their soundness arguments compare configuration *content*, never the
    identity of the run that recorded them — so every oracle the query
    server builds for the query, in any answer call, can pool them.  The
    store also owns the per-(query, schema)
    :class:`~repro.queries.certain.CertaintyFixpoint` (``certainty``): the
    materialized incremental-certainty state, keyed by fact-fingerprint
    lineage and therefore equally run-independent.  Evicting the store (the
    query server's bounded registry does this) drops the fixpoint with it,
    bounding materialized certainty state.

    Sharing is scoped to *identical* Boolean queries over the *same* schema
    object: :class:`~repro.runtime.cache.RelevanceOracle` validates both at
    attach time and raises :class:`~repro.exceptions.QueryError` otherwise.
    """

    def __init__(
        self,
        query,
        schema: Schema,
        *,
        max_entries: Optional[int] = 65536,
        fixpoint_max_facts: int = 1_000_000,
    ) -> None:
        self._query = query if query.is_boolean else query.boolean_closure()
        self._schema = schema
        self.ltr_history = LRUCache(max_entries)
        self.witnesses = LRUCache(max_entries)
        self.certainty = CertaintyFixpoint(self._query, max_facts=fixpoint_max_facts)

    @property
    def query(self):
        """The Boolean query the stored verdicts are about."""
        return self._query

    @property
    def schema(self) -> Schema:
        """The schema the stored verdicts were computed against."""
        return self._schema

    def check_compatible(self, query, schema: Schema) -> None:
        """Raise unless an oracle for ``(query, schema)`` may attach."""
        boolean = query if query.is_boolean else query.boolean_closure()
        if boolean != self._query:
            raise QueryError(
                "SharedVerdictStore was built for a different query; LTR "
                "history and witnesses only transfer between identical "
                "Boolean queries"
            )
        if schema is not self._schema:
            raise QueryError(
                "SharedVerdictStore was built for a different schema object; "
                "construct oracles and the store from the same schema"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SharedVerdictStore(query={getattr(self._query, 'name', None)!r}, "
            f"histories={len(self.ltr_history)}, witnesses={len(self.witnesses)})"
        )
