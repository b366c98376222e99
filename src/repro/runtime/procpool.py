"""Process-level parallelism for CPU-bound relevance searches.

PR 4's thread pool only overlaps *source latency*: every relevance search
(LTR witness search, crayfish chase, certainty check) still runs under the
GIL, one at a time.  :class:`ProcessRelevancePool` ships those searches to a
``concurrent.futures.ProcessPoolExecutor`` instead:

* the **parent** encodes each task through the wire formats of
  :mod:`repro.runtime.serialize` — the schema and query are pickled *once*
  and re-shipped as cached bytes, the configuration snapshot is pickled once
  per content fingerprint (its compact ``__reduce__`` ships facts and seed
  constants, not indexes);
* the **worker** decodes and memoizes by stable token, so a round of tasks
  over one configuration decodes it once, then runs the ordinary pure
  procedures (:func:`~repro.core.relevance.long_term_relevance_with_witness`,
  :func:`~repro.queries.certain.is_certain`,
  :func:`~repro.queries.certain.certain_answers`);
* the result travels back as plain data — the verdict plus, for a positive
  LTR search, the witness path as ``(method, binding, facts)`` triples that
  the parent re-anchors to *its* schema objects and feeds to the incremental
  engine, so later rounds revalidate in O(|path|) instead of re-searching.

Verdicts are pure functions of (query, schema, access, configuration
content), so a pool worker returns exactly what the in-process search would
— ``tests/test_serialize.py`` asserts this equivalence property across
seeds.  On platforms with ``fork`` the workers even share the parent's hash
seed, making *witness paths* (not just verdicts) bit-identical to in-process
searches.

The pool is deliberately generic: one pool serves every (query, schema) pair
— the :class:`~repro.runtime.server.QueryServer` runs all its queries'
searches through a single pool — and attaches to any number of
:class:`~repro.runtime.cache.RelevanceOracle` instances via their ``pool=``
knob.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.data import Configuration
from repro.runtime.serialize import (
    access_spec,
    decode_witness_steps,
    encode_witness_steps,
    query_token,
    schema_token,
)
from repro.runtime.tracing import (
    NO_TRACER,
    SpanContext,
    Tracer,
    activate_tracer,
    current_tracer,
    encode_spans,
)
from repro.runtime.witness import LtrWitness
from repro.schema import Access, Schema

__all__ = ["ProcessRelevancePool", "default_search_workers"]


def default_search_workers() -> int:
    """A sensible default worker count: the CPU count, at least 1."""
    return max(1, os.cpu_count() or 1)


# --------------------------------------------------------------------------- #
# Worker side (top-level, so every start method can import it)
# --------------------------------------------------------------------------- #
#: Per-worker decode caches: token -> decoded object.  Both are bounded FIFO
#: — a long-lived server receives freshly parsed query objects per request,
#: and an unbounded worker cache would grow worker RSS for the pool's
#: lifetime while the parent's (bounded) memoization stays flat.
_DECODED_OBJECTS: Dict[object, object] = {}
_DECODED_CONFIGS: "Dict[object, Configuration]" = {}
_MAX_CACHED_OBJECTS = 64
_MAX_CACHED_CONFIGS = 8


def _decode_cached(token: object, payload: bytes) -> object:
    obj = _DECODED_OBJECTS.get(token)
    if obj is None:
        obj = pickle.loads(payload)
        if len(_DECODED_OBJECTS) >= _MAX_CACHED_OBJECTS:
            _DECODED_OBJECTS.pop(next(iter(_DECODED_OBJECTS)))
        _DECODED_OBJECTS[token] = obj
    return obj


def _decode_configuration(token: object, payload: bytes) -> Configuration:
    configuration = _DECODED_CONFIGS.get(token)
    if configuration is None:
        configuration = pickle.loads(payload)
        if len(_DECODED_CONFIGS) >= _MAX_CACHED_CONFIGS:
            _DECODED_CONFIGS.pop(next(iter(_DECODED_CONFIGS)))
        _DECODED_CONFIGS[token] = configuration
    return configuration


def _run_task_kind(kind, spec, query, schema, configuration, tracer):
    """Dispatch one decoded task body (see :func:`_run_search_task`)."""
    from repro.core import is_immediately_relevant, long_term_relevance_with_witness
    from repro.queries import certain_answers, is_certain

    if kind == "ltr":
        access = Access(schema.access_method(spec[0]), tuple(spec[1]))
        with tracer.span("pool-search", method=spec[0]) as span:
            verdict, steps = long_term_relevance_with_witness(
                query, access, configuration, schema
            )
            span.annotate(relevant=verdict)
        return (verdict, encode_witness_steps(steps) if steps else None)
    if kind == "ltr_batch":
        results = []
        for method_name, binding in spec:
            access = Access(schema.access_method(method_name), tuple(binding))
            with tracer.span("pool-search", method=method_name) as span:
                verdict, steps = long_term_relevance_with_witness(
                    query, access, configuration, schema
                )
                span.annotate(relevant=verdict)
            results.append((verdict, encode_witness_steps(steps) if steps else None))
        return results
    if kind == "ir":
        access = Access(schema.access_method(spec[0]), tuple(spec[1]))
        return (is_immediately_relevant(query, access, configuration), None)
    if kind == "certain":
        with tracer.span("pool-search", search="certainty") as span:
            verdict = is_certain(query, configuration)
            span.annotate(certain=verdict)
        return (verdict, None)
    if kind == "answers":
        with tracer.span("pool-search", search="answers"):
            answers = certain_answers(query, configuration)
        return (answers, None)
    raise ValueError(f"unknown search task kind {kind!r}")


def _run_search_task(task: Tuple) -> Tuple:
    """Execute one relevance search in a worker process.

    ``task`` is a plain tuple (pickle-friendly, importable entry point):
    ``(kind, schema_token, schema_bytes, query_token, query_bytes,
    config_token, config_bytes, access_spec_or_None, trace)``.  Returns
    ``(verdict, witness_step_specs_or_None)`` for ``"ltr"``, the bare verdict
    for ``"certain"`` / ``"ir"``, and the frozen answer set for
    ``"answers"``.

    With ``trace`` set the worker records its own span tree (a local
    :class:`~repro.runtime.tracing.Tracer` activated for the task, so the
    instrumented chase/datalog layers trace too) and the return value becomes
    ``(payload, span_specs)`` — the encoded spans travel the same plain-tuple
    wire as everything else and the parent re-anchors them under the
    submitting span.  Untraced tasks return the exact legacy payload shapes.
    """
    (
        kind,
        stoken,
        schema_bytes,
        qtoken,
        query_bytes,
        ctoken,
        config_bytes,
        spec,
        trace,
    ) = task
    schema: Schema = _decode_cached(("schema", stoken), schema_bytes)
    query = _decode_cached(("query", stoken, qtoken), query_bytes)
    configuration = _decode_configuration((stoken, ctoken), config_bytes)
    tracer = Tracer() if trace else NO_TRACER
    with activate_tracer(tracer if trace else None):
        with tracer.span("pool-task", kind=kind):
            payload = _run_task_kind(kind, spec, query, schema, configuration, tracer)
    if trace:
        return (payload, encode_spans(tracer.spans()))
    return payload


# --------------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------------- #
class ProcessRelevancePool:
    """A pool of worker processes running relevance searches.

    Parameters
    ----------
    search_workers:
        Number of worker processes (defaults to the CPU count).  A pool with
        one worker is still useful for isolation, but the speedup comes from
        several workers on a multi-core machine.
    mp_context:
        An explicit :mod:`multiprocessing` context.  Defaults to ``fork``
        where available (cheap start-up, and workers inherit the parent's
        hash seed so search enumeration orders — hence witness paths — match
        the parent's exactly), falling back to the platform default.

    The executor is created lazily on first submission, so constructing a
    pool costs nothing until a search is actually offloaded.  Encoded schema
    and query payloads are memoized by stable token; configuration payloads
    are memoized by in-process fingerprint and re-encoded only when the
    configuration's content changes.
    """

    def __init__(
        self,
        search_workers: Optional[int] = None,
        *,
        mp_context: Optional[object] = None,
    ) -> None:
        self._workers = (
            default_search_workers() if search_workers is None else max(1, search_workers)
        )
        if mp_context is None:
            try:
                mp_context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                mp_context = None
        self._mp_context = mp_context
        self._executor: Optional[ProcessPoolExecutor] = None
        # All three memoization dicts are bounded FIFO: a long-lived server
        # submitting freshly parsed query objects per request must not pin
        # every one of them (or its payload bytes) for the pool's lifetime.
        # Eviction only costs a re-encode on the next submission.
        self._encoded: Dict[object, bytes] = {}
        self._config_payloads: Dict[object, Tuple[object, bytes]] = {}
        # id -> (strong ref, token).  The strong reference pins the object so
        # a recycled id can never alias a dead object to a stale token.
        self._tokens: Dict[int, Tuple[object, str]] = {}
        self._max_memoized = 64
        # In-flight task accounting: incremented on submission, decremented
        # by the future's done callback.  This is what the admission layer
        # of the network service polls to tell "workers busy" (fine) from
        # "backlog growing beyond what the workers can start on" (shed
        # load with 503 + Retry-After rather than queueing unboundedly).
        self._inflight = 0
        self._inflight_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def workers(self) -> int:
        """The configured number of worker processes."""
        return self._workers

    @property
    def inflight(self) -> int:
        """Tasks submitted but not yet finished (queued + running)."""
        with self._inflight_lock:
            return self._inflight

    def saturated(self, *, backlog_factor: float = 2.0) -> bool:
        """Whether the pool's backlog exceeds what its workers can absorb.

        ``True`` once more than ``workers × backlog_factor`` tasks are in
        flight — i.e. every worker is busy *and* a queue at least as deep
        again is waiting behind them.  The network service's admission
        controller uses this as its load-shedding signal; a merely-busy
        pool (≤ one task per worker) is never reported saturated.
        """
        return self.inflight > self._workers * backlog_factor

    def _submit_task(self, task: Tuple) -> Future:
        """Submit one encoded task with in-flight accounting."""
        executor = self._ensure_executor()
        with self._inflight_lock:
            self._inflight += 1
        try:
            future = executor.submit(_run_search_task, task)
        except BaseException:
            with self._inflight_lock:
                self._inflight -= 1
            raise
        future.add_done_callback(self._task_done)
        return future

    def _task_done(self, _future: Future) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            kwargs = {"max_workers": self._workers}
            if self._mp_context is not None:
                kwargs["mp_context"] = self._mp_context
            self._executor = ProcessPoolExecutor(**kwargs)
        return self._executor

    def close(self) -> None:
        """Shut the worker processes down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ProcessRelevancePool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Encoding caches
    # ------------------------------------------------------------------ #
    @staticmethod
    def _evict_overflow(mapping: Dict, limit: int) -> None:
        while len(mapping) > limit:
            mapping.pop(next(iter(mapping)))

    def _token_for(self, obj: object, compute) -> str:
        entry = self._tokens.get(id(obj))
        if entry is None or entry[0] is not obj:
            entry = (obj, compute(obj))
            self._tokens[id(obj)] = entry
            self._evict_overflow(self._tokens, self._max_memoized)
        return entry[1]

    def _schema_payload(self, schema: Schema) -> Tuple[str, bytes]:
        token = self._token_for(schema, schema_token)
        payload = self._encoded.get(("schema", token))
        if payload is None:
            payload = pickle.dumps(schema, protocol=pickle.HIGHEST_PROTOCOL)
            self._encoded[("schema", token)] = payload
            self._evict_overflow(self._encoded, self._max_memoized)
        return token, payload

    def _query_payload(self, query) -> Tuple[str, bytes]:
        token = self._token_for(query, query_token)
        payload = self._encoded.get(("query", token))
        if payload is None:
            payload = pickle.dumps(query, protocol=pickle.HIGHEST_PROTOCOL)
            self._encoded[("query", token)] = payload
            self._evict_overflow(self._encoded, self._max_memoized)
        return token, payload

    def _configuration_payload(
        self, configuration: Configuration, stoken: str
    ) -> Tuple[object, bytes]:
        # The in-process fingerprint is a cheap content key, scoped by the
        # schema token so equal fingerprints of different schemas can never
        # alias each other's payloads (here or in the worker's cache).
        key = (stoken, configuration.fingerprint())
        cached = self._config_payloads.get(key)
        if cached is None:
            payload = pickle.dumps(configuration, protocol=pickle.HIGHEST_PROTOCOL)
            cached = (repr(key[1]), payload)
            if len(self._config_payloads) >= 8:
                self._config_payloads.pop(next(iter(self._config_payloads)))
            self._config_payloads[key] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        kind: str,
        query,
        schema: Schema,
        configuration: Configuration,
        access: Optional[Access] = None,
        *,
        trace: bool = False,
    ) -> Future:
        """Submit one search task; returns the raw future.

        ``kind`` is ``"ltr"``, ``"ir"``, ``"certain"``, or ``"answers"``;
        the first two require ``access``.  With ``trace`` the worker records
        its span tree and the future resolves to ``(payload, span_specs)``
        instead of the bare payload — only trace-aware callers should set it
        (they re-anchor the specs with :meth:`Tracer.adopt_spans`).
        """
        stoken, schema_bytes = self._schema_payload(schema)
        qtoken, query_bytes = self._query_payload(query)
        ctoken, config_bytes = self._configuration_payload(configuration, stoken)
        task = (
            kind,
            stoken,
            schema_bytes,
            qtoken,
            query_bytes,
            ctoken,
            config_bytes,
            access_spec(access) if access is not None else None,
            trace,
        )
        return self._submit_task(task)

    def submit_ltr_many(
        self,
        query,
        schema: Schema,
        configuration: Configuration,
        accesses: Sequence[Access],
    ) -> List[Future]:
        """Submit one LTR search per access (all against one configuration)."""
        return [
            self.submit("ltr", query, schema, configuration, access)
            for access in accesses
        ]

    def submit_ltr_chunks(
        self,
        query,
        schema: Schema,
        configuration: Configuration,
        accesses: Sequence[Access],
        *,
        trace: bool = False,
    ) -> List[Tuple[List[Access], Future, bool, Optional[SpanContext]]]:
        """Submit the accesses' LTR searches in worker-sized chunks.

        Every submitted task tuple carries its own copy of the schema,
        query, and configuration payload bytes through the executor pipe, so
        one task *per access* ships the configuration O(#accesses) times.
        Chunking ships it O(#chunks): chunks are sized so each worker gets a
        few (load balancing against heterogeneous search costs) and each
        chunk's results come back as a list aligned with its accesses.

        Each returned record is ``(accesses, future, traced, parent)`` —
        ``parent`` captures the submitting thread's innermost open span so
        :meth:`ltr_chunk_results`, which may run long after that span's
        siblings started, re-anchors the worker's shipped spans under the
        span that actually requested the work.
        """
        if not accesses:
            return []
        parent = current_tracer().context() if trace else None
        chunk_size = max(1, -(-len(accesses) // (self._workers * 4)))
        stoken, schema_bytes = self._schema_payload(schema)
        qtoken, query_bytes = self._query_payload(query)
        ctoken, config_bytes = self._configuration_payload(configuration, stoken)
        chunks: List[Tuple[List[Access], Future, bool, Optional[SpanContext]]] = []
        for start in range(0, len(accesses), chunk_size):
            chunk = list(accesses[start : start + chunk_size])
            task = (
                "ltr_batch",
                stoken,
                schema_bytes,
                qtoken,
                query_bytes,
                ctoken,
                config_bytes,
                tuple(access_spec(access) for access in chunk),
                trace,
            )
            chunks.append((chunk, self._submit_task(task), trace, parent))
        return chunks

    def ltr_chunk_results(
        self,
        chunks: List[Tuple[List[Access], Future, bool, Optional[SpanContext]]],
        schema: Schema,
    ) -> List[Tuple[Access, bool, Optional[LtrWitness]]]:
        """Unpack :meth:`submit_ltr_chunks`: per access, verdict + witness.

        Traced chunks additionally carry the worker's encoded span tree; it
        is adopted into the collecting thread's active tracer under the
        span context captured at submission.
        """
        results: List[Tuple[Access, bool, Optional[LtrWitness]]] = []
        tracer = current_tracer()
        for chunk, future, traced, parent in chunks:
            payload = future.result()
            if traced:
                payload, span_specs = payload
                if tracer.enabled:
                    tracer.adopt_spans(span_specs, parent)
            for access, (verdict, specs) in zip(chunk, payload):
                witness = (
                    LtrWitness(decode_witness_steps(specs, schema))
                    if specs
                    else None
                )
                results.append((access, bool(verdict), witness))
        return results

    @staticmethod
    def ltr_result(future: Future, schema: Schema) -> Tuple[bool, Optional[LtrWitness]]:
        """Unpack one LTR future: the verdict plus the re-anchored witness."""
        verdict, specs = future.result()
        witness = (
            LtrWitness(decode_witness_steps(specs, schema)) if specs else None
        )
        return bool(verdict), witness

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "live" if self._executor is not None else "idle"
        return f"ProcessRelevancePool(workers={self._workers}, {state})"
