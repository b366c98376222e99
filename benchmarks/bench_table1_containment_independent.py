"""Experiment T1-R1/R2-CONT-ind: containment with independent accesses
(Table 1, containment column, rows 1-2: Π₂ᵖ-complete).

With independent (free-guess) accesses, containment under access limitations
coincides with classical containment; the benchmark times the access-aware
procedure against chain-in-edge containment instances of growing size and
checks the expected answers.
"""

from __future__ import annotations

import pytest

from repro import decide_containment
from repro.queries import parse_cq
from repro.workloads import chain_query


def _independent_chain(length: int):
    from repro.schema import SchemaBuilder

    builder = SchemaBuilder()
    builder.domain("D")
    for index in range(1, length + 1):
        relation = builder.relation(f"L{index}", [("src", "D"), ("dst", "D")])
        builder.access(f"accL{index}", relation, inputs=["src"], dependent=False)
    return builder.build()


@pytest.mark.experiment("T1-CONT-ind-positive")
@pytest.mark.parametrize("length", [2, 3, 4])
def test_containment_holds_chain_in_first_link(benchmark, length):
    schema = _independent_chain(length)
    query = chain_query(schema, length)
    link = parse_cq(schema, "L1(x, y)")
    result = benchmark(lambda: decide_containment(query, link, schema))
    assert result is True


@pytest.mark.experiment("T1-CONT-ind-negative")
@pytest.mark.parametrize("length", [2, 3, 4])
def test_containment_fails_first_link_in_chain(benchmark, length):
    schema = _independent_chain(length)
    query = chain_query(schema, length)
    link = parse_cq(schema, "L1(x, y)")
    result = benchmark(lambda: decide_containment(link, query, schema))
    assert result is False
