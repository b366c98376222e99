"""Experiment P3.3-P3.4-red: the relevance <-> containment reductions.

Round-trips containment instances through the Proposition 3.3 reduction (to
non-LTR) and LTR instances through the Proposition 3.4 reduction (to
non-containment), timing the reduced problem and checking the answers agree
with the direct procedures.
"""

from __future__ import annotations

import pytest

from repro import containment_to_ltr, decide_containment, ltr_to_containment
from repro.core import is_ltr_direct
from repro.workloads import containment_example_scenario, dependent_chain_scenario


@pytest.mark.experiment("P3.3-red")
@pytest.mark.parametrize("direction", ["contained", "not-contained"])
def test_prop33_roundtrip(benchmark, direction):
    schema, configuration, query_r, query_s = containment_example_scenario()
    if direction == "contained":
        query1, query2 = query_r, query_s
    else:
        query1, query2 = query_s, query_r
    expected = decide_containment(query1, query2, schema, configuration)
    instance = containment_to_ltr(query1, query2, configuration, schema)

    def reduced():
        return is_ltr_direct(
            instance.query, instance.access, instance.configuration, instance.schema
        )

    ltr = benchmark(reduced)
    assert ltr == (not expected)


@pytest.mark.experiment("P3.4-red")
@pytest.mark.parametrize("length", [2, 3])
def test_prop34_roundtrip(benchmark, length):
    scenario = dependent_chain_scenario(length)
    expected = is_ltr_direct(
        scenario.query, scenario.access, scenario.configuration, scenario.schema
    )
    instance = ltr_to_containment(
        scenario.query, scenario.access, scenario.configuration, scenario.schema
    )

    def reduced():
        return not decide_containment(
            instance.contained_query,
            instance.containing_query,
            instance.schema,
            instance.configuration,
        )

    non_containment = benchmark(reduced)
    assert non_containment == expected
