"""Simulated deep-Web sources and the mediator that queries them.

The paper's motivating setting is a federated query engine that can only
reach backend data through restricted interfaces (Web forms, services).  This
module simulates that setting:

* a :class:`DataSource` wraps a *hidden* instance together with one access
  method; it answers accesses soundly, either exactly (all matching tuples)
  or partially (a sampled subset), modelling sources with incomplete
  knowledge, and can simulate *access latency* — the round-trip delay that
  dominates real deep-Web wall-clock;
* a :class:`Mediator` owns the current configuration — everything retrieved
  so far — performs well-formed accesses against the sources, and keeps an
  access log, so answering strategies (see :mod:`repro.planner.dynamic`) can
  be compared by the number of accesses they make.

Concurrency model (see also the README section): the mediator can overlap
independent accesses with :meth:`Mediator.perform_many`.  Worker threads
(``concurrent.futures.ThreadPoolExecutor``) call only
:meth:`DataSource.respond` — a pure read of the immutable hidden instance
plus the simulated latency sleep.  Threads are the right tool here (rather
than asyncio): source latency is I/O-shaped waiting, which the GIL releases,
and the entire planner/oracle stack stays synchronous — an async path would
force ``await`` contagion through every relevance procedure for no extra
overlap.  All configuration mutation, access logging, and caller callbacks
(``stop``, ``should_perform``) stay on the *dispatching* thread, serialised
by the mediator's single writer lock, so relevance oracles and certainty
checks never observe a configuration mid-merge.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime imports us)
    from repro.runtime.metrics import RuntimeMetrics
    from repro.runtime.retry import BreakerBoard, Deadline, RetryPolicy

from repro.data import (
    AccessResponse,
    Configuration,
    Instance,
    is_well_formed,
)
from repro.exceptions import (
    AccessError,
    CircuitOpenError,
    DeadlineExceeded,
    MalformedResponseError,
    SchemaError,
    TransientAccessError,
)
from repro.schema import Access, AccessMethod, Schema

__all__ = ["DataSource", "FailurePolicy", "Mediator"]


def _current_tracer():
    """The thread's ambient tracer (lazy import: the runtime package imports us).

    Importing :mod:`repro.runtime.tracing` at module level would execute the
    ``repro.runtime`` package ``__init__`` mid-import of this module, and that
    package imports :class:`Mediator` back — the same cycle that keeps the
    ``RuntimeMetrics`` import under ``TYPE_CHECKING`` above.  After the first
    call this is a cached-function invocation plus one ``sys.modules`` hit.
    """
    global _current_tracer_impl
    if _current_tracer_impl is None:
        from repro.runtime.tracing import current_tracer

        _current_tracer_impl = current_tracer
    return _current_tracer_impl()


_current_tracer_impl = None


@dataclass(frozen=True)
class FailurePolicy:
    """Seeded, deterministic fault injection for one :class:`DataSource`.

    Mirrors the ``latency_s``/``latency_jitter_s`` design: every decision is
    a stable ``blake2b`` draw keyed by ``(seed, failure kind, method,
    binding, attempt number)``, so a chaos run is reproducible per
    ``(seed, access)`` — the Nth attempt of a given access fails (or not)
    identically across runs, threads, and processes.

    Parameters
    ----------
    transient_rate:
        Probability that an attempt raises
        :class:`~repro.exceptions.TransientAccessError` (retryable) before
        the simulated round trip.
    hard_fail_after:
        After this many total calls the source raises a plain (fatal)
        :class:`~repro.exceptions.AccessError` forever — a permanent outage.
        The trip point counts *calls to the source*, so under a concurrent
        batch it depends on interleaving; chaos tests that assert exact
        schedules run sequentially.
    hang_rate / hang_s:
        Probability that an attempt hangs for an extra ``hang_s`` seconds on
        top of the configured latency — the "latency spike beyond deadline"
        mode deadline tests use.
    malformed_rate:
        Probability that the response arrives garbled:
        :class:`~repro.exceptions.MalformedResponseError` (retryable) is
        raised *after* the simulated round trip.
    truncate_rate:
        Probability that a successful response is truncated to half its
        rows.  Truncation is sound (a subset of the true answer), so it
        degrades completeness without raising.
    seed:
        Seed of all the draws above; vary it per source.
    """

    transient_rate: float = 0.0
    hard_fail_after: Optional[int] = None
    hang_rate: float = 0.0
    hang_s: float = 0.0
    malformed_rate: float = 0.0
    truncate_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("transient_rate", "hang_rate", "malformed_rate", "truncate_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise AccessError(f"{name} must be between 0 and 1")
        if self.hang_s < 0.0:
            raise AccessError("hang_s must be non-negative")
        if self.hard_fail_after is not None and self.hard_fail_after < 0:
            raise AccessError("hard_fail_after must be non-negative")

    def _draw(self, kind: str, method: str, binding: Tuple, attempt: int) -> float:
        """Stable uniform draw in ``[0, 1)`` for one (kind, access, attempt)."""
        token = repr((self.seed, kind, method, binding, attempt)).encode()
        digest = hashlib.blake2b(token, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0**64


class DataSource:
    """A single source: one access method over a hidden instance.

    Parameters
    ----------
    method:
        The access method this source implements.
    hidden_instance:
        The full backend data (never exposed directly).
    completeness:
        Probability that each matching tuple is included in a response;
        ``1.0`` models an exact source, smaller values model sound but
        partial sources.  Inclusion is decided by a stable per-tuple hash of
        ``(seed, access, tuple)``, so a given access always returns the same
        subset — independent of call order, process hash seed, or how many
        worker threads are querying the source.
    seed:
        Seed of the per-source randomness (partial-response sampling and
        latency jitter).
    latency_s:
        Fixed simulated round-trip delay per access, in seconds.
    latency_jitter_s:
        Upper bound of an additional uniform per-call delay drawn from the
        source's seeded random generator.
    failure_policy:
        Optional :class:`FailurePolicy` injecting seeded, deterministic
        faults (transient errors, permanent outage, hangs, malformed or
        truncated responses).  ``None`` (the default) is the fault-free
        source with zero added bookkeeping on the respond path.

    ``respond`` may be called from many threads at once: the hidden instance
    is only read, the call counter, the jitter draw, and the per-access
    attempt counter are guarded by a per-source lock, and the latency sleep
    happens outside that lock so concurrent accesses genuinely overlap.
    """

    def __init__(
        self,
        method: AccessMethod,
        hidden_instance: Instance,
        *,
        completeness: float = 1.0,
        seed: int = 0,
        latency_s: float = 0.0,
        latency_jitter_s: float = 0.0,
        failure_policy: Optional[FailurePolicy] = None,
    ) -> None:
        if not 0.0 <= completeness <= 1.0:
            raise AccessError("completeness must be between 0 and 1")
        if latency_s < 0.0 or latency_jitter_s < 0.0:
            raise AccessError("latency and jitter must be non-negative")
        self._method = method
        self._hidden = hidden_instance
        self._completeness = completeness
        self._seed = seed
        self._random = random.Random(seed)
        self._latency_s = latency_s
        self._latency_jitter_s = latency_jitter_s
        self._failure_policy = failure_policy
        self._attempt_counts: Dict[Tuple, int] = {}
        self._lock = threading.Lock()
        self.calls = 0

    @property
    def method(self) -> AccessMethod:
        """The access method implemented by this source."""
        return self._method

    @property
    def latency_s(self) -> float:
        """The fixed simulated per-access delay."""
        return self._latency_s

    @property
    def failure_policy(self) -> Optional[FailurePolicy]:
        """The seeded fault-injection policy, if any."""
        return self._failure_policy

    def _keeps(self, access: Access, row: Tuple[object, ...]) -> bool:
        """Stable inclusion decision for one matching tuple of a partial source."""
        if self._completeness >= 1.0:
            return True
        token = repr((self._seed, self._method.name, access.binding, row)).encode()
        digest = hashlib.blake2b(token, digest_size=8).digest()
        draw = int.from_bytes(digest, "big") / 2.0**64
        return draw <= self._completeness

    def respond(self, access: Access) -> AccessResponse:
        """Answer an access (which must use this source's method)."""
        if access.method.name != self._method.name:
            raise AccessError(
                f"source for {self._method.name!r} received an access via "
                f"{access.method.name!r}"
            )
        policy = self._failure_policy
        attempt = 0
        with self._lock:
            self.calls += 1
            total_calls = self.calls
            delay = self._latency_s
            if self._latency_jitter_s > 0.0:
                delay += self._random.random() * self._latency_jitter_s
            if policy is not None:
                attempt = self._attempt_counts.get(access.binding, 0) + 1
                self._attempt_counts[access.binding] = attempt
        method = self._method.name
        if policy is not None:
            if policy.hard_fail_after is not None and total_calls > policy.hard_fail_after:
                raise AccessError(
                    f"source for {method!r} is permanently down "
                    f"(hard failure after {policy.hard_fail_after} calls)"
                )
            if policy.transient_rate > 0.0 and (
                policy._draw("transient", method, access.binding, attempt)
                < policy.transient_rate
            ):
                # Fails before the round trip, like a refused connection.
                raise TransientAccessError(
                    f"transient failure from source {method!r} "
                    f"(access {access.binding!r}, attempt {attempt})"
                )
            if policy.hang_rate > 0.0 and (
                policy._draw("hang", method, access.binding, attempt) < policy.hang_rate
            ):
                delay += policy.hang_s
        if delay > 0.0:
            # Outside the lock: concurrent accesses to one source overlap.
            time.sleep(delay)
        # Serve the access from the hidden instance's (place, constant)
        # indexes: only tuples agreeing with the binding are enumerated.
        matching = sorted(
            self._hidden.tuples_matching(access.relation, access.binding_by_place),
            key=repr,
        )
        if self._completeness >= 1.0:
            chosen: Sequence[Tuple[object, ...]] = matching
        else:
            chosen = [row for row in matching if self._keeps(access, row)]
        if policy is not None:
            if policy.malformed_rate > 0.0 and (
                policy._draw("malformed", method, access.binding, attempt)
                < policy.malformed_rate
            ):
                # Fails after the round trip, like a garbled payload.
                raise MalformedResponseError(
                    f"malformed response from source {method!r} "
                    f"(access {access.binding!r}, attempt {attempt})"
                )
            if policy.truncate_rate > 0.0 and chosen and (
                policy._draw("truncate", method, access.binding, attempt)
                < policy.truncate_rate
            ):
                # Sound degradation: a strict subset of the true answer.
                chosen = list(chosen)[: len(chosen) // 2]
        # The tuples come from an index lookup keyed on the binding, over an
        # instance validated at construction: skip per-tuple re-validation.
        return AccessResponse.trusted(access, tuple(chosen))


class Mediator:
    """A federated query engine over a set of sources.

    The mediator's state is its configuration; every successful access grows
    it.  Accesses that are not well-formed (a dependent binding value not yet
    known) are rejected, mirroring the paper's semantics.

    Ordering guarantees under :meth:`perform_many`: responses are merged and
    logged one at a time under the writer lock, in completion order — the
    *set* of performed accesses and the final configuration are deterministic
    for exact sources, while the log *order* within a concurrent batch is
    not.  Each merge keeps the all-or-nothing semantics of :meth:`perform`.
    """

    def __init__(
        self,
        schema: Schema,
        sources: Iterable[DataSource],
        initial_configuration: Optional[Configuration] = None,
        *,
        metrics: Optional["RuntimeMetrics"] = None,
        retry_policy: Optional["RetryPolicy"] = None,
        breakers: Optional["BreakerBoard"] = None,
    ) -> None:
        self._schema = schema
        self._sources: Dict[str, DataSource] = {}
        for source in sources:
            if source.method.name in self._sources:
                raise SchemaError(
                    f"duplicate source for access method {source.method.name!r}"
                )
            self._sources[source.method.name] = source
        self._configuration = (
            initial_configuration.copy()
            if initial_configuration is not None
            else Configuration.empty(schema)
        )
        self._log: List[Tuple[Access, int]] = []
        self._metrics = metrics
        self._retry = retry_policy
        self._breakers = breakers
        if breakers is not None and metrics is not None:
            breakers.attach_metrics(metrics)
        self._merge_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> Schema:
        """The schema shared by the sources."""
        return self._schema

    @property
    def configuration(self) -> Configuration:
        """The facts retrieved so far (a copy; mutate via :meth:`perform`)."""
        return self._configuration.copy()

    @property
    def configuration_view(self) -> Configuration:
        """A *live, read-only* view of the current configuration.

        Unlike :attr:`configuration` this does not copy; the returned object
        changes as accesses are performed.  Callers must not mutate it — the
        answering strategies use it to avoid per-candidate deep copies.
        During a :meth:`perform_many` batch the view only changes on the
        dispatching thread (merges happen between, not during, caller
        callbacks), so strategies reading it from that thread never observe a
        partial merge.
        """
        return self._configuration

    @property
    def fingerprint(self) -> Tuple[int, ...]:
        """The content fingerprint of the current configuration."""
        return self._configuration.fingerprint()

    @property
    def access_count(self) -> int:
        """How many accesses have been performed."""
        return len(self._log)

    @property
    def access_log(self) -> Tuple[Tuple[Access, int], ...]:
        """The sequence of performed accesses with the number of tuples returned."""
        return tuple(self._log)

    def source_for(self, method_name: str) -> DataSource:
        """The source implementing ``method_name``."""
        try:
            return self._sources[method_name]
        except KeyError:
            raise SchemaError(f"no source for access method {method_name!r}") from None

    @property
    def retry_policy(self) -> Optional["RetryPolicy"]:
        """The retry policy applied to every source call, if any."""
        return self._retry

    @property
    def breakers(self) -> Optional["BreakerBoard"]:
        """The per-source circuit-breaker board, if any (``/healthz`` reads it)."""
        return self._breakers

    # ------------------------------------------------------------------ #
    # Access execution
    # ------------------------------------------------------------------ #
    def can_perform(self, access: Access) -> bool:
        """Whether the access is well-formed at the current configuration."""
        return is_well_formed(access, self._configuration)

    def _merge_response(self, access: Access, response: AccessResponse) -> int:
        """Merge one response under the writer lock; return the new-fact count.

        All-or-nothing: if a response tuple fails validation part-way
        (possible with duck-typed sources), the merged prefix is rolled back
        so the configuration never keeps facts from a failed access.
        """
        relation_name = access.relation.name
        with self._merge_lock:
            configuration = self._configuration
            added: List[Tuple[object, ...]] = []
            try:
                for values in response.facts:
                    if configuration.add(relation_name, values):
                        added.append(values)
            except Exception:
                for values in added:
                    configuration.remove(relation_name, values)
                raise
            new_facts = len(added)
            self._log.append((access, len(response)))
        if self._metrics is not None:
            self._metrics.incr("mediator.accesses")
            self._metrics.incr("mediator.facts_returned", len(response))
            self._metrics.incr("mediator.facts_new", new_facts)
        return new_facts

    def _respond_timed(self, access: Access, tracer, parent, tags=None):
        """Answer ``access``, measuring the round-trip; safe on worker threads.

        Returns ``(response, duration, span)`` where ``span`` is the recorded
        ``source-call`` span (``None`` when tracing is off) — the caller
        annotates merge-time facts onto it after the merge.  The per-access
        latency lands in the ``source.latency`` histogram whether or not
        tracing is on: percentiles are always-on telemetry, spans are opt-in.
        """
        source = self.source_for(access.method.name)
        start = time.time()
        t0 = time.perf_counter()
        response = source.respond(access)
        duration = time.perf_counter() - t0
        span = None
        if tracer.enabled:
            span_tags = {"method": access.method.name, "facts": len(response)}
            if tags:
                span_tags.update(tags)
            span = tracer.record_span(
                "source-call",
                start=start,
                duration=duration,
                parent=parent,
                tags=span_tags,
            )
        if self._metrics is not None:
            self._metrics.observe("source.latency", duration)
        return response, duration, span

    @staticmethod
    def _annotate_error(exc: BaseException, access: Access, attempts: int) -> BaseException:
        """Attach the failing access and attempt count to an error, best effort."""
        try:
            if getattr(exc, "access", None) is None:
                exc.access = access
            exc.attempts = attempts
        except Exception:  # pragma: no cover - exotic exception without __dict__
            pass
        return exc

    @staticmethod
    def _attach_batch_context(
        exc: BaseException, access: Access, timings: Sequence[Tuple[Access, float]]
    ) -> BaseException:
        """Enrich a batch-aborting error with the access and partial timings.

        The all-or-nothing raise of :meth:`perform_many` used to discard
        *which* access failed; callers now find it in ``error.access`` and
        the ``(access, duration)`` pairs merged before the failure in
        ``error.timings``.
        """
        try:
            if getattr(exc, "access", None) is None:
                exc.access = access
            exc.timings = tuple(timings)
        except Exception:  # pragma: no cover - exotic exception without __dict__
            pass
        return exc

    def _failure_span(
        self, tracer, parent, access: Access, tags, start, duration, error, attempt, gave_up,
        breaker_state=None,
    ) -> None:
        """Record a ``source-call`` span for a failed attempt (tracing only)."""
        if not tracer.enabled:
            return
        span_tags = {
            "method": access.method.name,
            "error": type(error).__name__,
            "attempt": attempt,
            "gave_up": gave_up,
        }
        if breaker_state is not None and breaker_state != "closed":
            span_tags["breaker"] = breaker_state
        if tags:
            span_tags.update(tags)
        tracer.record_span(
            "source-call", start=start, duration=duration, parent=parent, tags=span_tags
        )

    def _respond_resilient(self, access: Access, tracer, parent, tags=None, deadline=None):
        """Answer ``access`` under the retry policy, breaker, and deadline.

        Returns ``(response, duration, span, attempts)``.  Runs on worker
        threads: retries (and their backoff sleeps) overlap in the pool while
        merges stay on the dispatch thread.  With no policy, board, or
        deadline configured this is a pass-through to :meth:`_respond_timed`
        — the fault-free path is bit-identical to the pre-resilience code.
        """
        policy = self._retry
        board = self._breakers
        if policy is None and board is None and deadline is None:
            response, duration, span = self._respond_timed(access, tracer, parent, tags)
            return response, duration, span, 1
        breaker = board.breaker_for(access.method.name) if board is not None else None
        metrics = self._metrics
        attempts = 0
        while True:
            if deadline is not None and deadline.expired():
                raise self._annotate_error(
                    DeadlineExceeded(
                        f"deadline expired before access {access!r} could be attempted"
                    ),
                    access,
                    attempts,
                )
            if breaker is not None and not breaker.allow():
                if metrics is not None:
                    metrics.incr("breaker.fast_fail")
                exc = CircuitOpenError(
                    f"circuit breaker open for source {access.method.name!r}"
                )
                self._failure_span(
                    tracer, parent, access, tags, time.time(), 0.0, exc,
                    attempts + 1, True, breaker_state="open",
                )
                raise self._annotate_error(exc, access, attempts)
            attempts += 1
            start = time.time()
            t0 = time.perf_counter()
            try:
                response, duration, span = self._respond_timed(access, tracer, parent, tags)
            except Exception as exc:
                duration = time.perf_counter() - t0
                if breaker is not None:
                    breaker.record_failure()
                if metrics is not None:
                    metrics.incr("source.failures")
                retryable = (
                    policy is not None
                    and attempts < policy.max_attempts
                    and policy.is_retryable(exc)
                )
                backoff = 0.0
                if retryable:
                    backoff = policy.backoff_s(
                        access.method.name, access.binding, attempts
                    )
                    if deadline is not None and deadline.remaining() <= backoff:
                        retryable = False  # no budget left to wait out the backoff
                self._failure_span(
                    tracer, parent, access, tags, start, duration, exc,
                    attempts, not retryable,
                    breaker_state=None if breaker is None else breaker.state,
                )
                if not retryable:
                    if metrics is not None and policy is not None:
                        metrics.incr("retry.gave_up")
                    raise self._annotate_error(exc, access, attempts)
                if metrics is not None:
                    metrics.incr("retry.attempts")
                if backoff > 0.0:
                    time.sleep(backoff)
                continue
            if breaker is not None:
                breaker.record_success()
            if attempts > 1:
                if metrics is not None:
                    metrics.incr("retry.recovered")
                if span is not None:
                    span.annotate(attempt=attempts)
            return response, duration, span, attempts

    def _perform_counted_traced(
        self, access: Access, tracer, parent, tags=None, deadline=None
    ) -> Tuple[AccessResponse, int, float, int]:
        """The :meth:`perform_counted` body with explicit trace plumbing."""
        if not self.can_perform(access):
            raise self._annotate_error(
                AccessError(
                    f"access {access!r} is not well-formed at the current configuration"
                ),
                access,
                0,
            )
        response, duration, span, attempts = self._respond_resilient(
            access, tracer, parent, tags, deadline
        )
        new_facts = self._merge_response(access, response)
        if span is not None:
            span.annotate(new_facts=new_facts)
        return response, new_facts, duration, attempts

    def perform_counted(self, access: Access) -> Tuple[AccessResponse, int]:
        """Perform a well-formed access; return ``(response, new facts merged)``.

        ``new facts merged`` counts only tuples the configuration did not
        already contain — the progress measure the answering strategies use
        (a response full of already-known tuples is not progress).
        """
        tracer = _current_tracer()
        parent = tracer.context() if tracer.enabled else None
        response, new_facts, _duration, _attempts = self._perform_counted_traced(
            access, tracer, parent
        )
        return response, new_facts

    def perform(self, access: Access) -> AccessResponse:
        """Perform a well-formed access and merge its response.

        The response facts are merged into the configuration *in place* (the
        indexed instance absorbs them incrementally); external snapshots taken
        via :attr:`configuration` are unaffected.
        """
        return self.perform_counted(access)[0]

    def perform_many(
        self,
        accesses: Iterable[Access],
        *,
        max_concurrency: int = 1,
        stop: Optional[Callable[[], bool]] = None,
        should_perform: Optional[Callable[[Access], bool]] = None,
        on_performed: Optional[Callable[[Access, AccessResponse, int], None]] = None,
        on_timing: Optional[Callable[[Access, float], None]] = None,
        on_attempts: Optional[Callable[[Access, int], None]] = None,
        on_failure: Optional[Callable[[Access, BaseException, int], None]] = None,
        tags_for: Optional[Callable[[Access], Optional[Dict[str, object]]]] = None,
        deadline: Optional["Deadline"] = None,
    ) -> List[Tuple[Access, AccessResponse, int]]:
        """Perform a batch of accesses, overlapping their source latency.

        Up to ``max_concurrency`` accesses are in flight at once; worker
        threads only call :meth:`DataSource.respond` (wrapped in the
        mediator's retry policy and breaker, when configured), while this
        (the dispatching) thread checks well-formedness, consults
        ``should_perform`` immediately before each dispatch, merges completed
        responses one at a time under the writer lock, and evaluates ``stop``
        between completions.  Once ``stop`` returns true no further access is
        dispatched; accesses already in flight were genuinely sent to their
        sources, so their responses are still merged and logged (the
        performed set equals the dispatched set — except under an expired
        ``deadline``, which abandons in-flight work unmerged).

        ``on_performed`` is invoked on this thread right after each merge —
        callers tracking which accesses were performed (the executor's
        deduplication set) see every merge even if a later access of the
        batch fails and the call raises.  ``on_timing`` likewise runs on this
        thread after each merge with the access's measured source round-trip,
        so callers can feed per-access latency histograms, and
        ``on_attempts`` reports how many source-call attempts the access
        took (1 unless the retry policy kicked in).  ``tags_for`` is
        evaluated at dispatch time (on this thread) and its tags land on the
        access's ``source-call`` trace span — the hook the executor uses to
        attach why-was-this-access-performed annotations.

        Failure semantics: with ``on_failure`` *unset*, the first failing
        access aborts the batch — remaining in-flight work is drained, then
        the error is re-raised carrying the failing ``Access`` in
        ``error.access``, the ``(access, duration)`` pairs merged before the
        failure in ``error.timings``, and the attempt count in
        ``error.attempts``.  With ``on_failure`` set, each failure is
        reported on this thread as ``on_failure(access, error, attempts)``
        and the rest of the batch proceeds — the degraded mode the answering
        runtime uses so one flaky source cannot wedge its batchmates.

        ``deadline`` bounds the whole batch: no new access is dispatched
        after expiry, retries never back off past it, and if it expires with
        work still hung in flight those accesses are abandoned (reported as
        :class:`~repro.exceptions.DeadlineExceeded`; the worker threads
        finish in the background and their responses are discarded, never
        merged).  A batch with a deadline runs on the pooled path even at
        ``max_concurrency=1`` so a hung source cannot block past expiry.

        Tracing note: the tracer active on *this* thread at entry, and its
        innermost open span, are captured once — worker threads record their
        ``source-call`` spans against that explicit parent, since
        thread-locals do not follow work into the pool.

        Returns ``(access, response, new facts merged)`` triples in merge
        (completion) order.  With ``max_concurrency <= 1`` (and no deadline)
        the batch runs strictly sequentially on this thread with identical
        semantics.
        """
        pending = deque(accesses)
        performed: List[Tuple[Access, AccessResponse, int]] = []
        completed_timings: List[Tuple[Access, float]] = []
        tracer = _current_tracer()
        batch_parent = tracer.context() if tracer.enabled else None

        def dispatch_tags(access: Access) -> Optional[Dict[str, object]]:
            if tags_for is None or not tracer.enabled:
                return None
            return tags_for(access)

        def record(access: Access, response: AccessResponse, new_facts: int) -> None:
            performed.append((access, response, new_facts))
            if on_performed is not None:
                on_performed(access, response, new_facts)

        if max_concurrency <= 1 and deadline is None:
            while pending:
                if stop is not None and stop():
                    break
                access = pending.popleft()
                if should_perform is not None and not should_perform(access):
                    continue
                try:
                    response, new_facts, duration, attempts = self._perform_counted_traced(
                        access, tracer, batch_parent, dispatch_tags(access)
                    )
                except Exception as exc:
                    if on_failure is not None:
                        on_failure(access, exc, getattr(exc, "attempts", 1))
                        continue
                    raise self._attach_batch_context(exc, access, completed_timings)
                completed_timings.append((access, duration))
                if on_timing is not None:
                    on_timing(access, duration)
                if on_attempts is not None:
                    on_attempts(access, attempts)
                record(access, response, new_facts)
            return performed

        board = self._breakers
        errors: List[BaseException] = []
        stopped = False
        abandoned = False
        pool = ThreadPoolExecutor(max_workers=max(1, max_concurrency))
        try:
            in_flight: Dict[object, Access] = {}

            def fail(access: Access, exc: BaseException, attempts: int) -> bool:
                """Report one failure; return True if the batch must stop."""
                nonlocal stopped
                if on_failure is not None:
                    on_failure(access, exc, attempts)
                    return False
                errors.append(self._attach_batch_context(exc, access, completed_timings))
                stopped = True
                return True

            def dispatch_more() -> None:
                nonlocal stopped
                while pending and len(in_flight) < max_concurrency and not stopped:
                    if stop is not None and stop():
                        stopped = True
                        break
                    if deadline is not None and deadline.expired():
                        stopped = True
                        break
                    access = pending.popleft()
                    if should_perform is not None and not should_perform(access):
                        continue
                    if board is not None and board.breaker_for(
                        access.method.name
                    ).fail_fast():
                        # Known-open breaker: fail fast on the dispatch thread
                        # instead of queueing doomed work into the pool.
                        if self._metrics is not None:
                            self._metrics.incr("breaker.fast_fail")
                        exc = self._annotate_error(
                            CircuitOpenError(
                                f"circuit breaker open for source "
                                f"{access.method.name!r}"
                            ),
                            access,
                            0,
                        )
                        if fail(access, exc, 0):
                            break
                        continue
                    if not self.can_perform(access):
                        exc = self._annotate_error(
                            AccessError(
                                f"access {access!r} is not well-formed at the "
                                f"current configuration"
                            ),
                            access,
                            0,
                        )
                        if fail(access, exc, 0):
                            break
                        continue
                    in_flight[
                        pool.submit(
                            self._respond_resilient,
                            access,
                            tracer,
                            batch_parent,
                            dispatch_tags(access),
                            deadline,
                        )
                    ] = access

            dispatch_more()
            while in_flight:
                timeout = None
                if deadline is not None:
                    remaining = deadline.remaining()
                    if remaining != float("inf"):
                        timeout = max(0.0, remaining)
                done, _ = futures_wait(
                    in_flight, timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    # The deadline expired with work still hung in flight:
                    # abandon it.  Queued-but-unstarted futures are
                    # cancelled; running workers finish in the background
                    # and their responses are discarded, never merged.
                    abandoned = True
                    stopped = True
                    if self._metrics is not None:
                        self._metrics.incr("deadline.abandoned", len(in_flight))
                    for future, access in list(in_flight.items()):
                        future.cancel()
                        exc = self._annotate_error(
                            DeadlineExceeded(
                                f"deadline expired with access {access!r} in flight"
                            ),
                            access,
                            0,
                        )
                        fail(access, exc, 0)
                    in_flight.clear()
                    break
                for future in done:
                    access = in_flight.pop(future)
                    try:
                        response, duration, span, attempts = future.result()
                    except BaseException as exc:  # drain remaining in-flight work
                        fail(access, exc, getattr(exc, "attempts", 1))
                        continue
                    try:
                        new_facts = self._merge_response(access, response)
                    except BaseException as exc:
                        fail(access, exc, attempts)
                        continue
                    if span is not None:
                        span.annotate(new_facts=new_facts)
                    completed_timings.append((access, duration))
                    if on_timing is not None:
                        on_timing(access, duration)
                    if on_attempts is not None:
                        on_attempts(access, attempts)
                    record(access, response, new_facts)
                if stop is not None and not stopped and stop():
                    stopped = True
                dispatch_more()
        finally:
            pool.shutdown(wait=not abandoned, cancel_futures=abandoned)
        if errors:
            raise errors[0]
        return performed

    def seed_constants(self, constants: Iterable[Tuple[object, object]]) -> None:
        """Make constants (e.g. query constants) available for dependent bindings."""
        for value, domain in constants:
            self._configuration.add_constant(value, domain)

    def serve(self, **server_kwargs):
        """A :class:`~repro.runtime.server.QueryServer` over this mediator.

        Convenience entry point for the multi-query runtime::

            server = mediator.serve(cache_path="witness.jsonl", parallelism=4)
            result = server.answer([q1, q2, q3])

        All keyword arguments are forwarded to the server's constructor.
        The server shares this mediator's configuration: every access any
        query triggers is visible to later ``answer`` calls (and to direct
        :meth:`perform` callers).
        """
        from repro.runtime.server import QueryServer

        return QueryServer(self, **server_kwargs)
