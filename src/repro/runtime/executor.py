"""Batched access execution against a mediator.

:class:`AccessExecutor` keeps the access bookkeeping out of the answering
loop of :class:`~repro.runtime.server.QueryServer`:

* it deduplicates accesses, so an access performed once is never re-sent to a
  source — including accesses an earlier executor (or a direct
  :meth:`~repro.sources.service.Mediator.perform`) already merged into the
  mediator, which it seeds from the mediator's access log;
* it executes *batches* — a whole round of accesses is dispatched in one
  call, and with ``max_concurrency`` the batch's independent accesses
  overlap their source latency through
  :meth:`~repro.sources.service.Mediator.perform_many`;
* it records metrics (accesses performed, skipped, facts retrieved, *new*
  facts merged).

Progress is measured in **new facts merged**, not tuples returned: with
overlapping sources an access can return plenty of tuples the configuration
already knows, and a round of such accesses must not count as progress (the
strategies would run a provably idle extra round).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.data import AccessResponse, Configuration
from repro.exceptions import DeadlineExceeded
from repro.runtime.cache import access_key
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.tracing import current_tracer
from repro.schema import Access, Schema
from repro.sources.service import Mediator

__all__ = ["AccessExecutor", "BatchResult", "candidate_accesses"]


def candidate_accesses(
    schema: Schema,
    configuration: Configuration,
    performed_key: Callable[[Tuple[str, Tuple[object, ...]]], bool],
) -> List[Access]:
    """Well-formed accesses (dependent bindings from the active domain) not yet made.

    This is the per-round enumeration of
    :class:`~repro.runtime.server.QueryServer`, which enumerates once per
    round and shares the list across all its queries.
    ``performed_key`` is usually :meth:`AccessExecutor.has_performed_key`.
    """
    candidates: List[Access] = []
    by_domain = configuration.active_values_by_domain()
    for method in schema.access_methods:
        pools: List[Tuple[object, ...]] = []
        feasible = True
        for place in method.input_places:
            domain = method.relation.domain_of(place)
            values = by_domain.get(domain)
            if not values:
                feasible = False
                break
            pools.append(values)
        if not feasible:
            continue
        for binding in itertools.product(*pools) if pools else [()]:
            if performed_key((method.name, binding)):
                continue
            candidates.append(Access(method, binding))
    return candidates


@dataclass
class BatchResult:
    """Outcome of a batch of accesses.

    ``failed`` lists ``(access, error, attempts)`` for accesses that could
    not be performed (only populated in degraded mode, i.e. when the batch
    ran with ``tolerate_failures=True``); ``attempts_by_key`` maps each
    access key that reached a source to its source-call attempt count
    (1 unless the retry policy kicked in); ``deadline_expired`` records that
    the batch's deadline cut it short.
    """

    responses: List[AccessResponse] = field(default_factory=list)
    performed: int = 0
    skipped: int = 0
    new_facts: int = 0
    failed: List[Tuple[Access, BaseException, int]] = field(default_factory=list)
    attempts_by_key: Dict[Tuple[str, Tuple[object, ...]], int] = field(default_factory=dict)
    deadline_expired: bool = False

    @property
    def facts_returned(self) -> int:
        """Total tuples returned across the batch's responses."""
        return sum(len(response) for response in self.responses)

    @property
    def progressed(self) -> bool:
        """Whether the batch merged at least one fact the configuration lacked.

        Tuples that were already present (overlapping sources re-returning
        known facts) do not count: re-running a round after a no-new-facts
        batch is provably idle, since the configuration — and therefore every
        candidate set and relevance verdict — is unchanged.
        """
        return self.new_facts > 0


class AccessExecutor:
    """Deduplicating, metric-recording executor over one mediator."""

    def __init__(self, mediator: Mediator, *, metrics: Optional[RuntimeMetrics] = None) -> None:
        self._mediator = mediator
        self._metrics = metrics if metrics is not None else RuntimeMetrics()
        # The log holds merged accesses only, so a failed access stays a
        # candidate for retry.
        self._performed: Set[Tuple[str, Tuple[object, ...]]] = {
            access_key(access) for access, _tuples in mediator.access_log
        }

    @property
    def mediator(self) -> Mediator:
        """The mediator accesses are executed against."""
        return self._mediator

    @property
    def metrics(self) -> RuntimeMetrics:
        """The metrics sink the executor records into."""
        return self._metrics

    def key(self, access: Access) -> Tuple[str, Tuple[object, ...]]:
        """The deduplication key of an access (shared with the oracle)."""
        return access_key(access)

    def already_performed(self, access: Access) -> bool:
        """Whether the executor has already performed this access."""
        return self.key(access) in self._performed

    def has_performed_key(self, key: Tuple[str, Tuple[object, ...]]) -> bool:
        """Key-based variant of :meth:`already_performed` (no Access needed)."""
        return key in self._performed

    def execute(self, access: Access) -> Optional[AccessResponse]:
        """Perform one access (``None`` if it was already performed)."""
        key = self.key(access)
        if key in self._performed:
            self._metrics.incr("executor.skipped")
            return None
        response, _new_facts = self._mediator.perform_counted(access)
        self._performed.add(key)
        self._metrics.incr("executor.performed")
        self._metrics.incr("executor.facts", len(response))
        return response

    def execute_batch(
        self,
        accesses: Iterable[Access],
        *,
        precheck: Optional[Callable[[Access], bool]] = None,
        stop: Optional[Callable[[], bool]] = None,
        max_concurrency: int = 1,
        annotate_access: Optional[Callable[[Access], Optional[Dict[str, object]]]] = None,
        on_response: Optional[Callable[[AccessResponse], None]] = None,
        deadline=None,
        tolerate_failures: bool = False,
    ) -> BatchResult:
        """Perform every not-yet-performed access of the batch.

        ``precheck`` is consulted immediately before each dispatch, against
        whatever state earlier completions of the batch merged — the query
        server passes its relevance re-check here, so an access
        screened relevant at the top of the round is re-validated (cheaply,
        through the incremental engine) at the configuration it actually
        executes against.  ``stop`` ends the batch between completions (e.g.
        the query became certain); responses already in flight are still
        merged, so the performed set always equals the dispatched set.
        ``on_response`` is invoked on the calling thread for each response,
        immediately after its facts are merged into the configuration and
        before any subsequent ``stop`` or ``precheck`` evaluation — the
        ordering incremental consumers (the certainty fixpoint) rely on to
        stay in lineage with the live configuration mid-batch.

        With ``max_concurrency > 1`` the batch overlaps source latency
        through :meth:`Mediator.perform_many`; prechecks, stop checks, and
        merges all stay on the calling thread (see the mediator's concurrency
        notes), so the semantics match the sequential path except that up to
        ``max_concurrency`` accesses dispatched before a stop may complete.

        When tracing is active the batch runs under an ``access-batch`` span
        (each performed access's ``source-call`` span parents under it, even
        from pool worker threads), and ``annotate_access`` — evaluated at
        dispatch time — supplies extra tags for each access's span; the
        query server passes the screening layer's why-was-this-performed
        annotations here.  Per-access latency always lands in the
        ``access.latency`` and ``access.latency.<method>`` histograms.

        Fault tolerance: with ``tolerate_failures=True`` a failing access
        does not abort the batch — it lands in ``result.failed`` as
        ``(access, error, attempts)`` and its batchmates proceed; the access
        is *not* marked performed, so a later round (or ``answer`` call) may
        retry it.  ``deadline`` bounds the batch through
        :meth:`Mediator.perform_many`: after expiry nothing new is
        dispatched, hung in-flight work is abandoned unmerged, and
        ``result.deadline_expired`` is set.  With both left at their
        defaults the batch is bit-identical to the pre-fault-tolerance
        behavior (first failure raises, enriched with ``error.access`` and
        partial ``error.timings``).
        """
        result = BatchResult()

        deduplicated: List[Access] = []
        seen: Set[Tuple[str, Tuple[object, ...]]] = set()
        for access in accesses:
            key = self.key(access)
            if key in self._performed or key in seen:
                result.skipped += 1
                self._metrics.incr("executor.skipped")
                continue
            seen.add(key)
            deduplicated.append(access)

        def should_perform(access: Access) -> bool:
            if precheck is not None and not precheck(access):
                result.skipped += 1
                self._metrics.incr("executor.precheck_skipped")
                return False
            return True

        def on_performed(access: Access, response: AccessResponse, new_facts: int) -> None:
            # Recorded per merge, not after the batch: accesses performed
            # before a mid-batch failure stay deduplicated on a retry.
            self._performed.add(self.key(access))
            self._metrics.incr("executor.performed")
            self._metrics.incr("executor.facts", len(response))
            result.performed += 1
            result.responses.append(response)
            result.new_facts += new_facts
            if on_response is not None:
                on_response(response)

        def on_timing(access: Access, duration: float) -> None:
            self._metrics.observe("access.latency", duration)
            self._metrics.observe(f"access.latency.{access.method.name}", duration)

        def on_attempts(access: Access, attempts: int) -> None:
            result.attempts_by_key[self.key(access)] = attempts

        def on_failure(access: Access, error: BaseException, attempts: int) -> None:
            result.failed.append((access, error, attempts))
            if attempts:
                result.attempts_by_key[self.key(access)] = attempts
            if isinstance(error, DeadlineExceeded):
                result.deadline_expired = True
            self._metrics.incr("executor.failed")

        tracer = current_tracer()
        with tracer.span(
            "access-batch",
            candidates=len(deduplicated),
            max_concurrency=max_concurrency,
        ) as batch_span:
            self._mediator.perform_many(
                deduplicated,
                max_concurrency=max_concurrency,
                stop=stop,
                should_perform=should_perform if precheck is not None else None,
                on_performed=on_performed,
                on_timing=on_timing,
                on_attempts=on_attempts,
                on_failure=on_failure if tolerate_failures else None,
                tags_for=annotate_access,
                deadline=deadline,
            )
            if deadline is not None and deadline.expired():
                result.deadline_expired = True
            batch_span.annotate(
                performed=result.performed,
                skipped=result.skipped,
                new_facts=result.new_facts,
            )
            if result.failed:
                batch_span.annotate(failed=len(result.failed))
        return result
