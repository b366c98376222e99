"""The benchmark's workloads, each driving a public entry point with one client.

Every workload is built from the run's seed (its set-up, timed as
``setup_s``) and then answers requests in a closed loop: ``request(index,
traced)`` performs one request, checks its answers or verdicts against a
reference (raising :class:`WrongResult` on a mismatch), and returns a
:class:`Outcome` whose ``work`` counts ``run.py`` requires to repeat for the
same ``key`` within the run.  Request ``index`` serves input ``index %
inputs``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
import time
import urllib.error
import urllib.request
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from layers import LayerProbe, request_layers
from repro.core import decide_containment
from repro.core.longterm_dependent import containment_cq_memo
from repro.data import Configuration
from repro.queries import parse_cq
from repro.runtime import QueryServer, RetryPolicy, RuntimeMetrics, serve_in_background
from repro.runtime.tracing import Tracer
from repro.workloads import bank_multi_query_scenario, chain_schema, flaky_scenario


class WrongResult(Exception):
    """An answer, verdict or repeated work count differed from its reference."""


@dataclass
class Outcome:
    """One request as the client saw it."""

    elapsed_s: float
    ops: int
    failed: int
    key: Hashable
    work: Dict[str, int]
    cpu_s: float
    #: Seconds the reference job took around this request (set by run.py).
    reference_s: float = 0.0
    #: Per-layer values; only for traced requests.
    layers: Optional[Dict[str, float]] = None
    spans: List[object] = field(default_factory=list)


def _counts(metrics: RuntimeMetrics) -> Tuple[Dict[str, int], Dict[str, float]]:
    snapshot = metrics.snapshot()
    return dict(snapshot.get("counters", {})), dict(snapshot.get("gauges", {}))


# --------------------------------------------------------------------------- #
# bank-cold / bank-warm: the ROADMAP reference batch through QueryServer
# --------------------------------------------------------------------------- #
#: Reference answers of ``bank_multi_query_scenario(4)``, by query name.
BANK_ANSWERS = {
    "bank0-Illinois-30yr": True,
    "bank1-Illinois-heloc": True,
    "bank2-State3-auto": False,
    "bank3-State1-heloc": False,
}
#: Counters of one bank batch that must repeat request after request.
BANK_WORK = (
    "oracle.fresh_searches",
    "executor.performed",
    "witness.revalidated",
    "persist.seeded",
    "persist.recorded",
    "server.rounds",
)
#: Wrapped counts that must repeat among traced requests.
TRACED_WORK = ("ltr.searches", "ltr.assignments", "ltr.plan_searches")


class _Bank:
    """Shared mechanics of the two bank workloads.

    The seed permutes the batch's query order and seeds the simulated
    sources; every request builds a fresh scenario (fresh ``Schema`` objects,
    so the chase's per-schema caches start empty), mediator and
    ``QueryServer(search_workers=1)``, and clears the process-wide
    containment-CQ memo first.
    """

    def __init__(self, seed: int, run_dir: str) -> None:
        self.seed = seed
        self.run_dir = run_dir
        self.order = list(range(len(BANK_ANSWERS)))
        random.Random(seed).shuffle(self.order)
        self.flush_policy = ""

    def answer_batch(self, store_path: str, traced: bool) -> Outcome:
        containment_cq_memo().clear()
        probe = LayerProbe() if traced else None
        tracer = Tracer() if traced else None
        metrics = RuntimeMetrics()
        cpu = time.process_time()
        started = time.perf_counter()
        scenario = bank_multi_query_scenario(len(BANK_ANSWERS))
        queries = [scenario.queries[index] for index in self.order]
        server = QueryServer(
            scenario.mediator(seed=self.seed, metrics=metrics),
            search_workers=1,
            cache_path=store_path,
            cache_backend="sqlite",
            metrics=metrics,
            tracer=tracer,
        )
        try:
            with probe.installed() if probe is not None else nullcontext():
                result = server.answer(queries)
            elapsed = time.perf_counter() - started
            cpu = time.process_time() - cpu
            self.flush_policy = _flush_policy(server)
        finally:
            server.close()
            server.persist.close()
        for query, outcome in zip(queries, result.outcomes):
            # A batch cut off by its round budget proves no negative answer.
            if (
                outcome.boolean_answer != BANK_ANSWERS[query.name]
                or outcome.rounds_exhausted
            ):
                raise WrongResult(
                    f"{query.name}: answered {outcome.boolean_answer} "
                    f"(rounds_exhausted={outcome.rounds_exhausted}), "
                    f"expected {BANK_ANSWERS[query.name]}"
                )
        failed = sum(1 for outcome in result.outcomes if outcome.degraded)
        counters, gauges = _counts(metrics)
        work = {name: counters.get(name, 0) for name in BANK_WORK}
        outcome = Outcome(elapsed, len(queries), failed, "batch", work, cpu)
        if probe is not None:
            outcome.spans = tracer.spans()
            outcome.layers = request_layers(
                probe, outcome.spans, counters, gauges, elapsed_s=elapsed
            )
            work.update({name: outcome.layers[name] for name in TRACED_WORK})
        return outcome

    def close(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)


def _flush_policy(server: QueryServer) -> str:
    """The SQLite store's journal mode and synchronous level, as configured.

    ``synchronous`` is a per-connection setting, so it is read from the
    store's own connection.
    """
    connection = getattr(server.persist.store, "_conn", None)
    if connection is None:
        return "sqlite: not opened"
    journal = connection.execute("PRAGMA journal_mode").fetchone()[0]
    synchronous = connection.execute("PRAGMA synchronous").fetchone()[0]
    level = {0: "OFF", 1: "NORMAL", 2: "FULL", 3: "EXTRA"}.get(synchronous, synchronous)
    return f"sqlite journal_mode={journal} synchronous={level}"


class BankCold(_Bank):
    """Each request answers the batch against a new, empty SQLite store."""

    name = "bank-cold"
    inputs = 1
    min_requests = 3
    ops_per_request = len(BANK_ANSWERS)

    def request(self, index: int, traced: bool) -> Outcome:
        store_dir = tempfile.mkdtemp(prefix="cold-", dir=self.run_dir)
        try:
            return self.answer_batch(os.path.join(store_dir, "witness.sqlite"), traced)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)


class BankWarm(_Bank):
    """Set-up answers the batch once cold, writing the SQLite store; each
    request re-opens that store with a fresh mediator and server."""

    name = "bank-warm"
    inputs = 1
    min_requests = 4
    ops_per_request = len(BANK_ANSWERS)

    def __init__(self, seed: int, run_dir: str) -> None:
        super().__init__(seed, run_dir)
        self.store_path = os.path.join(run_dir, "warm-witness.sqlite")
        self.answer_batch(self.store_path, traced=False)

    def request(self, index: int, traced: bool) -> Outcome:
        return self.answer_batch(self.store_path, traced)


# --------------------------------------------------------------------------- #
# fanout-http: the flaky fanout federation behind AnsweringService
# --------------------------------------------------------------------------- #
#: Distinct scenario seeds a run cycles through, so each input repeats and
#: its work counts can be compared.
FANOUT_INPUTS = 8
#: Counters of one fanout batch that must repeat for the same scenario seed.
#: The oracle's counts (fresh searches, revalidations) are not among them:
#: with ``parallelism=2`` each dispatch-time precheck sees whichever responses
#: have merged so far, so they vary with thread timing (observed: 32-35 fresh
#: searches for one seed).  The access set, retries and rounds do not.
FANOUT_WORK = (
    "executor.performed",
    "retry.attempts",
    "retry.recovered",
    "retry.gave_up",
    "server.rounds",
)


def _rows(rows) -> frozenset:
    return frozenset(tuple(str(value) for value in row) for row in rows)


class FanoutHttp:
    """One ``POST /queries?wait=1`` of 8 queries to a fresh service.

    Request ``i`` serves ``flaky_scenario("fanout", seed=seed + i % 8,
    transient_rate=0.2, n_queries=8)`` with source latency 5 ms ± 2.5 ms, a
    seeded ``RetryPolicy`` and ``parallelism=2``.  Starting and stopping the
    service is not timed; the client times the POST.
    """

    name = "fanout-http"
    inputs = FANOUT_INPUTS
    min_requests = 2 * FANOUT_INPUTS
    ops_per_request = 8

    def __init__(self, seed: int, run_dir: str) -> None:
        self.seed = seed
        self.run_dir = run_dir
        self.flush_policy = "none (no witness store)"
        self.references = {}
        for offset in range(FANOUT_INPUTS):
            scenario = self._scenario(offset)
            server = QueryServer(scenario.mediator(chaos=False))
            try:
                result = server.answer(list(scenario.queries))
            finally:
                server.close()
            self.references[offset] = [_rows(answers) for answers in result.answers]

    def _scenario(self, offset: int):
        return flaky_scenario(
            "fanout",
            seed=self.seed + offset,
            transient_rate=0.2,
            n_queries=self.ops_per_request,
        )

    def request(self, index: int, traced: bool) -> Outcome:
        offset = index % FANOUT_INPUTS
        scenario = self._scenario(offset)
        metrics = RuntimeMetrics()
        mediator = scenario.mediator(
            chaos=True,
            # Eight attempts make giving up on an access (0.2 ** 8 per access)
            # practically impossible, so no query of any seed is degraded;
            # with four, some seeds degraded 1.5% of their queries.
            retry_policy=RetryPolicy(
                max_attempts=8, base_backoff_s=0.005, seed=self.seed + offset
            ),
            latency_s=0.005,
            latency_jitter_s=0.0025,
            seed=self.seed + offset,
            metrics=metrics,
        )
        server = QueryServer(mediator, parallelism=2, metrics=metrics)
        handle = serve_in_background(server)
        body = json.dumps(
            {"queries": [str(query) for query in scenario.queries], "client": "bench"}
        ).encode("utf-8")
        probe = LayerProbe() if traced else None
        try:
            with probe.installed() if probe is not None else nullcontext():
                status, document, elapsed, cpu = self._post(handle.base_url, body)
        finally:
            handle.shutdown()
            server.close()
        ops = len(scenario.queries)
        if status not in (200, 206):
            failed = ops
        else:
            failed = self._check(document, self.references[offset])
        counters, gauges = _counts(metrics)
        work = {name: counters.get(name, 0) for name in FANOUT_WORK}
        outcome = Outcome(elapsed, ops, failed, offset, work, cpu)
        if probe is not None:
            # The service records each batch under its own tracer and hands
            # the spans to explain_trace, where the probe collects them.
            outcome.spans = probe.service_spans
            outcome.layers = request_layers(
                probe, outcome.spans, counters, gauges, elapsed_s=elapsed
            )
        return outcome

    @staticmethod
    def _post(base_url: str, body: bytes):
        request = urllib.request.Request(
            f"{base_url}/queries?wait=1",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        cpu = time.process_time()
        started = time.perf_counter()
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                status, payload = response.status, response.read()
        except urllib.error.HTTPError as error:
            status, payload = error.code, error.read()
        elapsed = time.perf_counter() - started
        cpu = time.process_time() - cpu
        document = json.loads(payload.decode("utf-8")) if status in (200, 206) else None
        return status, document, elapsed, cpu

    @staticmethod
    def _check(document, reference) -> int:
        """Failed queries of a 2xx response; raises on an unsound answer."""
        records = document["queries"]
        if len(records) != len(reference):
            raise WrongResult(f"served {len(records)} queries, sent {len(reference)}")
        failed = 0
        for record, expected in zip(records, reference):
            if record["state"] not in ("done", "degraded"):
                failed += 1
                continue
            answers = _rows(record["outcome"]["answers"])
            if record["state"] == "degraded":
                failed += 1
                if not answers <= expected:
                    raise WrongResult(f"degraded answers not a subset: {record}")
            elif answers != expected:
                raise WrongResult(f"answers differ from the fault-free run: {record}")
        return failed

    def close(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)


# --------------------------------------------------------------------------- #
# containment: one sweep of decide_containment over chain_schema(2)
# --------------------------------------------------------------------------- #
#: ``(case, contained query, containing query, facts per relation, verdict)``;
#: ``{t}``/``{u}`` are constants the seed renames.
CONTAINMENT_CASES = (
    ("degenerate", "L1(x, y), L2(y, z)", "L1(x, y)", 10, True),
    ("nondegenerate-20", "L1(x, y), L2(y, '{t}')", "L2(z, '{t}')", 20, True),
    ("nondegenerate-40", "L1(x, y), L2(y, '{t}')", "L2(z, '{t}')", 40, True),
    ("noncontained", "L1(x, y), L2(y, '{u}')", "L1(x, '{u}')", 40, False),
)


class Containment:
    """Each request is one sweep of the four cases, in a seed-permuted order.

    The seed also renames every constant.  Each case gets a fresh schema, so
    no case inherits another's per-schema chase caches whatever the order.
    The probe's assignment counter stays installed in untraced runs too, so
    every sweep's work is checked (it adds one generator hop per assignment,
    about 30,000 per sweep).
    """

    name = "containment"
    inputs = 1
    min_requests = 3
    ops_per_request = len(CONTAINMENT_CASES)

    def __init__(self, seed: int, run_dir: str) -> None:
        self.run_dir = run_dir
        self.flush_policy = "none (no witness store)"
        rng = random.Random(seed)
        self.tag = f"{rng.getrandbits(32):08x}"
        self.order = list(CONTAINMENT_CASES)
        rng.shuffle(self.order)

    def _case_input(self, facts: int):
        schema = chain_schema(2)
        configuration = Configuration.empty(schema)
        for index in range(facts):
            configuration.add("L1", (f"a{self.tag}_{index}", f"b{self.tag}_{index}"))
            configuration.add("L2", (f"b{self.tag}_{index}", f"c{self.tag}_{index}"))
        return schema, configuration

    def request(self, index: int, traced: bool) -> Outcome:
        probe = LayerProbe()
        names = {"t": f"t{self.tag}", "u": f"u{self.tag}"}
        case_s: Dict[str, float] = {}
        work: Dict[str, int] = {}
        elapsed = 0.0
        cpu = time.process_time()
        with probe.installed():
            for case, contained, containing, facts, expected in self.order:
                started = time.perf_counter()
                schema, configuration = self._case_input(facts)
                query1 = parse_cq(schema, contained.format(**names))
                query2 = parse_cq(schema, containing.format(**names))
                before = probe.containment_assignments
                verdict = decide_containment(query1, query2, schema, configuration)
                case_s[case] = time.perf_counter() - started
                elapsed += case_s[case]
                work[case] = probe.containment_assignments - before
                if verdict is not expected:
                    raise WrongResult(f"{case}: verdict {verdict}, expected {expected}")
        cpu = time.process_time() - cpu
        outcome = Outcome(elapsed, len(self.order), 0, "sweep", work, cpu)
        if traced:
            outcome.layers = request_layers(
                probe, (), {}, {}, elapsed_s=elapsed, case_s=case_s
            )
        return outcome

    def close(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (BankCold, BankWarm, FanoutHttp, Containment)}
