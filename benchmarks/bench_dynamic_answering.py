"""Experiment APP-mediator: exhaustive vs relevance-guided dynamic answering.

This is the application-level experiment motivated by the paper's
introduction: a federated engine answering the loan-officer query over the
bank sources.  The exhaustive strategy (the prior dynamic approach of
Li [18]) retrieves the whole accessible part; the relevance-guided strategy
only performs accesses that are long-term relevant and stops when the query
becomes certain.  Both must agree on the Boolean answer; the guided strategy
should make no more accesses than the exhaustive one.
"""

from __future__ import annotations

import os

import pytest

from repro.planner import exhaustive_strategy, relevance_guided_strategy
from repro.sources import build_bank_scenario


@pytest.fixture(scope="module")
def bank():
    if os.environ.get("REPRO_BENCH_SMOKE"):
        # CI smoke sizing: small enough to finish in seconds while still
        # exercising both strategies end to end.
        return build_bank_scenario(employees=3, offices=2, states=2, known_employees=1)
    return build_bank_scenario(employees=6, offices=3, states=3, known_employees=2)


@pytest.mark.experiment("APP-mediator-exhaustive")
def test_exhaustive_strategy(benchmark, bank):
    result = benchmark(lambda: exhaustive_strategy(bank.mediator(), bank.query))
    assert result.boolean_answer


@pytest.mark.experiment("APP-mediator-guided")
def test_relevance_guided_strategy(benchmark, bank):
    exhaustive = exhaustive_strategy(bank.mediator(), bank.query)

    def guided():
        return relevance_guided_strategy(bank.mediator(), bank.query)

    # A guided run takes milliseconds; the gate reads the ``min`` of five.
    result = benchmark.pedantic(guided, rounds=5, iterations=1)
    assert result.boolean_answer == exhaustive.boolean_answer
    assert result.accesses_made <= exhaustive.accesses_made
