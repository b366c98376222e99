"""Dynamic query answering: exhaustive vs. relevance-guided access strategies.

This is the application layer that motivates the paper.  A mediator holds a
configuration that grows with every access; the question at each step is
*which access to make next*:

* the **exhaustive** strategy (the recursive enumeration of Li [18], built on
  the inverse-rules idea) performs every well-formed access it has not made
  yet, until no access returns anything new — it retrieves the full
  accessible part of the sources;
* the **relevance-guided** strategies only perform accesses that are
  immediately relevant, long-term relevant, or both, for the query at the
  current configuration, and stop as soon as the (Boolean) query becomes
  certain.

Both are single-query entry points over the one answering loop of
:class:`~repro.runtime.server.QueryServer`: each call builds a server over
the mediator, answers a one-query batch, and reports the outcome as an
:class:`AnsweringResult` (answers, accesses made, facts retrieved), so the
strategies can be compared head to head in
``benchmarks/bench_dynamic_answering.py``.  Telemetry is the server's:
``server.*`` counters and histograms, and an ``answer`` root span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.runtime import QueryServer, RuntimeMetrics
from repro.runtime.tracing import TracerLike
from repro.sources.service import Mediator

__all__ = ["AnsweringResult", "exhaustive_strategy", "relevance_guided_strategy"]


@dataclass(frozen=True)
class AnsweringResult:
    """Outcome of a dynamic answering run.

    ``accesses_made`` and ``facts_retrieved`` count this run only, not the
    mediator's lifetime totals.  ``degraded`` marks a *sound but possibly
    incomplete* run: accesses failed past their retries (their keys are in
    ``failed_accesses``) or the run's deadline expired before certainty.
    The answers are still the certain answers at the facts actually merged —
    by monotonicity a subset of the fault-free answers, never a wrong claim.
    ``attempts`` totals the source-call attempts (including retries) the run
    spent.
    """

    answers: FrozenSet[Tuple[object, ...]]
    accesses_made: int
    facts_retrieved: int
    relevance_checks: int = 0
    rounds_exhausted: bool = False
    degraded: bool = False
    failed_accesses: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()
    attempts: int = 0

    @property
    def boolean_answer(self) -> bool:
        """Boolean reading of the answer set (true iff non-empty)."""
        return bool(self.answers)


def _answer_alone(
    mediator: Mediator,
    query,
    strategy: str,
    *,
    max_rounds: int,
    deadline_s: Optional[float] = None,
    **server_knobs,
) -> AnsweringResult:
    """Answer ``query`` as a one-query :class:`QueryServer` batch."""
    result = QueryServer(mediator, **server_knobs).answer(
        [query], strategy=strategy, max_rounds=max_rounds, deadline_s=deadline_s
    )
    (outcome,) = result.outcomes
    return AnsweringResult(
        answers=outcome.answers,
        accesses_made=result.accesses_made,
        facts_retrieved=result.facts_retrieved,
        relevance_checks=outcome.relevance_checks,
        rounds_exhausted=outcome.rounds_exhausted,
        degraded=outcome.degraded,
        failed_accesses=outcome.failed_accesses,
        attempts=outcome.attempts,
    )


def exhaustive_strategy(
    mediator: Mediator,
    query,
    *,
    max_rounds: int = 50,
    metrics: Optional[RuntimeMetrics] = None,
    parallelism: int = 1,
    tracer: Optional[TracerLike] = None,
) -> AnsweringResult:
    """Perform every well-formed access until a fixpoint (Li [18]).

    Each round's candidate accesses are dispatched as one batch (with
    ``parallelism > 1``, up to that many accesses of the round overlap their
    source latency); the run stops when a round merges no new fact.  If
    ``max_rounds`` ends the run while rounds were still making progress, the
    result is flagged ``rounds_exhausted`` — the retrieved accessible part
    (and hence the answer) may be incomplete.

    ``metrics`` and ``tracer`` are the server's: omitted, the run records
    into a private sink and inherits the calling thread's ambient tracer.
    """
    return _answer_alone(
        mediator,
        query,
        "exhaustive",
        max_rounds=max_rounds,
        metrics=metrics,
        parallelism=parallelism,
        tracer=tracer,
    )


def relevance_guided_strategy(
    mediator: Mediator,
    query,
    *,
    use_immediate: bool = False,
    use_long_term: bool = True,
    max_rounds: int = 50,
    metrics: Optional[RuntimeMetrics] = None,
    parallelism: int = 1,
    cache_path: Optional[str] = None,
    cache_backend: str = "auto",
    tracer: Optional[TracerLike] = None,
    deadline_s: Optional[float] = None,
) -> AnsweringResult:
    """Only perform accesses that are relevant for the query.

    ``use_long_term`` filters accesses through the oracle's memoized
    long-term relevance; ``use_immediate`` additionally (or alternatively)
    requires immediate relevance.  For Boolean queries the run stops as soon
    as the query becomes certain.  If ``max_rounds`` ends the run before
    certainty or a no-progress fixpoint, the result is flagged
    ``rounds_exhausted``.

    The knobs are :class:`~repro.runtime.server.QueryServer`'s:
    ``parallelism`` overlaps source latency within a round, and
    ``cache_path`` / ``cache_backend`` attach a persistent witness cache so this run
    revalidates paths recorded by earlier runs instead of searching fresh.

    Failures degrade the result instead of raising: an access that fails
    past the mediator's retry policy lands in ``failed_accesses``, and
    ``deadline_s`` gives the run a wall-clock budget after which in-flight
    accesses are abandoned unmerged.  The result flags ``degraded`` when
    faults cost the run certainty — the answers are then a sound subset.
    """
    return _answer_alone(
        mediator,
        query,
        "guided",
        max_rounds=max_rounds,
        deadline_s=deadline_s,
        use_immediate=use_immediate,
        use_long_term=use_long_term,
        metrics=metrics,
        parallelism=parallelism,
        cache_path=cache_path,
        cache_backend=cache_backend,
        tracer=tracer,
    )
