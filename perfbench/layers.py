"""Per-layer measurement for the traced runs.

Two sources feed the per-layer metrics:

* benchmark-side wrappers (:class:`LayerProbe`), installed on the module
  attributes each caller looks the function up through, for the work the
  program does not count itself: LTR searches and their assignments and plan
  searches, containment assignments, production-plan time, and the
  service's ``explain_trace`` rendering;
* the program's own :class:`~repro.runtime.tracing.Tracer` spans and
  :class:`~repro.runtime.metrics.RuntimeMetrics` counters.

:func:`request_layers` turns one request's worth of both into a flat
``{metric name: value}`` dict; ``run.py`` reports the median of each over
a run's traced requests.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

import repro.core.containment as containment_module
import repro.core.longterm_dependent as ltr_module
import repro.core.relevance as relevance_module
import repro.runtime.service as service_module

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("ltr.searches", "count", "lower"),
    ("ltr.positive", "count", "lower"),
    ("ltr.search_s", "s", "lower"),
    ("ltr.assignments", "count", "lower"),
    ("ltr.plan_searches", "count", "lower"),
    ("ltr.plan_share", "ratio", "higher"),
    ("chase.plans_s", "s", "lower"),
    ("containment.decisions", "count", "lower"),
    ("containment.degenerate_s", "s", "lower"),
    ("containment.nondegenerate_s", "s", "lower"),
    ("containment.noncontained_s", "s", "lower"),
    ("containment.assignments", "count", "lower"),
    ("oracle.lookups", "count", "lower"),
    ("oracle.hit_share", "ratio", "higher"),
    ("oracle.fresh_searches", "count", "lower"),
    ("oracle.self_s", "s", "lower"),
    ("screening.candidates", "count", "lower"),
    ("screening.kept_share", "ratio", "lower"),
    ("screening.s", "s", "lower"),
    ("witness.revalidated", "count", "higher"),
    ("witness.revalidate_s", "s", "lower"),
    ("persist.seeded", "count", "higher"),
    ("persist.recorded", "count", "lower"),
    ("persist.appends", "count", "lower"),
    ("persist.dedup_skips", "count", "lower"),
    ("persist.s", "s", "lower"),
    ("persist.store_bytes", "bytes", "lower"),
    ("certainty.checks", "count", "lower"),
    ("certainty.delta_share", "ratio", "higher"),
    ("certainty.s", "s", "lower"),
    ("finalize.s", "s", "lower"),
    ("executor.performed", "count", "lower"),
    ("executor.facts_per_access", "ratio", "higher"),
    ("executor.batch_s", "s", "lower"),
    ("source.wait_s", "s", "lower"),
    ("retry.attempts", "count", "lower"),
    ("retry.recovered", "count", "higher"),
    ("retry.gave_up", "count", "lower"),
    ("breaker.fast_fail", "count", "lower"),
    ("server.rounds", "count", "lower"),
    ("server.answer_s", "s", "lower"),
    ("server.self_s", "s", "lower"),
    ("service.overhead_ms", "ms", "lower"),
    ("service.explain_s", "s", "lower"),
    ("service.batches", "count", "lower"),
    ("admission.rejected", "count", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("process.tracing_overhead", "ratio", "lower"),
)


class LayerProbe:
    """Counters and timers filled by the wrappers while installed.

    One probe serves one request.  :meth:`installed` swaps each wrapped
    function into the module that *calls* it and restores the original on
    exit — wrapping ``repro.core.longterm_dependent.find_ltr_witness_steps``
    alone would miss every call, because :mod:`repro.core.relevance` imported
    the name before the benchmark could patch it.
    """

    def __init__(self) -> None:
        self.ltr_searches = 0
        self.ltr_positive = 0
        self.ltr_search_s = 0.0
        self.ltr_assignments = 0
        self.ltr_plan_searches = 0
        self.containment_assignments = 0
        self.plans_s = 0.0
        self.explain_s = 0.0
        #: Spans handed to ``explain_trace``: the service's own per-batch trace.
        self.service_spans: List[object] = []

    @contextmanager
    def installed(self):
        """Patch the wrappers in for the body of the ``with`` block."""
        patches = [
            (relevance_module, "find_ltr_witness_steps", self._wrap_search),
            (ltr_module, "iter_witness_assignments", self._counting("ltr_assignments")),
            (ltr_module, "iter_production_plans", self._timed_plans(count=True)),
            (
                containment_module,
                "iter_witness_assignments",
                self._counting("containment_assignments"),
            ),
            (containment_module, "iter_production_plans", self._timed_plans(count=False)),
            (service_module, "explain_trace", self._wrap_explain),
        ]
        originals = []
        try:
            for module, name, make in patches:
                original = getattr(module, name)
                originals.append((module, name, original))
                setattr(module, name, make(original))
            yield self
        finally:
            for module, name, original in reversed(originals):
                setattr(module, name, original)

    def _wrap_search(self, original):
        def find_ltr_witness_steps(*args, **kwargs):
            started = time.perf_counter()
            try:
                steps = original(*args, **kwargs)
            finally:
                self.ltr_search_s += time.perf_counter() - started
                self.ltr_searches += 1
            if steps is not None:
                self.ltr_positive += 1
            return steps

        return find_ltr_witness_steps

    def _counting(self, attribute: str):
        def make(original):
            def iter_witness_assignments(*args, **kwargs):
                count = 0
                try:
                    for assignment in original(*args, **kwargs):
                        count += 1
                        yield assignment
                finally:
                    setattr(self, attribute, getattr(self, attribute) + count)

            return iter_witness_assignments

        return make

    def _timed_plans(self, *, count: bool):
        def make(original):
            def iter_production_plans(*args, **kwargs):
                if count:
                    self.ltr_plan_searches += 1
                plans = original(*args, **kwargs)
                try:
                    while True:
                        started = time.perf_counter()
                        try:
                            plan = next(plans)
                        except StopIteration:
                            return
                        finally:
                            self.plans_s += time.perf_counter() - started
                        yield plan
                finally:
                    plans.close()

            return iter_production_plans

        return make

    def _wrap_explain(self, original):
        def explain_trace(spans, *args, **kwargs):
            spans = list(spans)
            self.service_spans.extend(spans)
            started = time.perf_counter()
            try:
                return original(spans, *args, **kwargs)
            finally:
                self.explain_s += time.perf_counter() - started

        return explain_trace


def _interval_union(intervals: List[Tuple[float, float]]) -> float:
    covered = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        covered += stop - max(start, end)
        end = stop
    return covered


def span_totals(spans: Iterable[object]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Total and self seconds per span name.

    A span's self time is its duration minus the part of its interval that
    its child spans cover (children may overlap, as source calls on the
    executor's threads do, so the union is taken).
    """
    spans = list(spans)
    children: Dict[Tuple[int, int], List[object]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault((span.trace_id, span.parent_id), []).append(span)
    total: Dict[str, float] = {}
    self_time: Dict[str, float] = {}
    for span in spans:
        start, stop = span.start, span.start + span.duration
        covered = _interval_union(
            [
                (max(start, child.start), min(stop, child.start + child.duration))
                for child in children.get((span.trace_id, span.span_id), ())
                if child.start < stop and child.start + child.duration > start
            ]
        )
        total[span.name] = total.get(span.name, 0.0) + span.duration
        self_time[span.name] = self_time.get(span.name, 0.0) + max(
            0.0, span.duration - covered
        )
    return total, self_time


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def request_layers(
    probe: LayerProbe,
    spans: Iterable[object],
    counters: Dict[str, int],
    gauges: Dict[str, float],
    *,
    elapsed_s: float,
    case_s: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """One traced request's per-layer values: every :data:`PER_LAYER` name
    except the ``process.*`` ones, which compare traced and untraced
    requests."""
    spans = list(spans)
    total, self_time = span_totals(spans)
    prefilter = [span for span in spans if span.name == "screen.prefilter"]
    kept = sum(int(span.tags.get("kept", 0)) for span in prefilter)
    candidates = kept + sum(int(span.tags.get("dropped", 0)) for span in prefilter)
    hits = counters.get("oracle.hits", 0)
    lookups = hits + counters.get("oracle.misses", 0)
    reused = hits + counters.get("oracle.delta_hits", 0) + counters.get("oracle.adopted", 0)
    exact = counters.get("certainty.exact", 0)
    advanced = counters.get("certainty.advanced", 0)
    restarted = counters.get("certainty.restarted", 0)
    performed = counters.get("executor.performed", 0)
    case_s = case_s or {}
    answer_s = total.get("answer", 0.0)
    return {
        "ltr.searches": probe.ltr_searches,
        "ltr.positive": probe.ltr_positive,
        "ltr.search_s": probe.ltr_search_s,
        "ltr.assignments": probe.ltr_assignments,
        "ltr.plan_searches": probe.ltr_plan_searches,
        "ltr.plan_share": _ratio(probe.ltr_plan_searches, probe.ltr_assignments),
        "chase.plans_s": probe.plans_s,
        "containment.decisions": len(case_s),
        "containment.degenerate_s": case_s.get("degenerate", 0.0),
        "containment.nondegenerate_s": case_s.get("nondegenerate-20", 0.0)
        + case_s.get("nondegenerate-40", 0.0),
        "containment.noncontained_s": case_s.get("noncontained", 0.0),
        "containment.assignments": probe.containment_assignments,
        "oracle.lookups": lookups,
        "oracle.hit_share": _ratio(reused, lookups),
        "oracle.fresh_searches": counters.get("oracle.fresh_searches", 0),
        "oracle.self_s": self_time.get("oracle", 0.0),
        "screening.candidates": candidates,
        "screening.kept_share": _ratio(kept, candidates),
        "screening.s": total.get("screen.prefilter", 0.0) + total.get("screen.group", 0.0),
        "witness.revalidated": counters.get("witness.revalidated", 0),
        "witness.revalidate_s": total.get("witness-revalidate", 0.0),
        "persist.seeded": counters.get("persist.seeded", 0),
        "persist.recorded": counters.get("persist.recorded", 0),
        "persist.appends": counters.get("persist.sqlite.appends", 0),
        "persist.dedup_skips": counters.get("persist.sqlite.dedup_skips", 0),
        "persist.s": total.get("persist.seed", 0.0) + total.get("persist.record", 0.0),
        "persist.store_bytes": gauges.get("persist.sqlite.bytes", 0) or 0,
        "certainty.checks": exact + advanced + restarted
        + counters.get("certainty.unsupported", 0),
        "certainty.delta_share": _ratio(advanced, advanced + restarted + exact),
        "certainty.s": total.get("certainty", 0.0),
        "finalize.s": total.get("finalize", 0.0),
        "executor.performed": performed,
        "executor.facts_per_access": _ratio(counters.get("executor.facts", 0), performed),
        "executor.batch_s": total.get("access-batch", 0.0),
        "source.wait_s": total.get("source-call", 0.0),
        "retry.attempts": counters.get("retry.attempts", 0),
        "retry.recovered": counters.get("retry.recovered", 0),
        "retry.gave_up": counters.get("retry.gave_up", 0),
        "breaker.fast_fail": counters.get("breaker.fast_fail", 0),
        "server.rounds": counters.get("server.rounds", 0),
        "server.answer_s": answer_s,
        "server.self_s": self_time.get("answer", 0.0),
        "service.overhead_ms": (elapsed_s - answer_s) * 1000.0
        if counters.get("service.batches", 0)
        else 0.0,
        "service.explain_s": probe.explain_s,
        "service.batches": counters.get("service.batches", 0),
        "admission.rejected": sum(
            value for name, value in counters.items()
            if name.startswith("admission.rejected")
        ),
    }
