"""Experiment T1-R1-IR-ind / T1-R2-IR-ind: immediate relevance (Table 1, IR column).

Immediate relevance is DP-complete in combined complexity for both CQs and
PQs, and AC0 (here: polynomial, and empirically flat) in data complexity.
The benchmark times the IR procedure on growing query sizes (combined
complexity shape) for conjunctive and positive queries over independent
accesses.
"""

from __future__ import annotations

import pytest

from repro import Access, is_immediately_relevant
from repro.workloads import random_cq, random_pq, random_schema, random_instance, random_configuration


def _setup(query_size: int, positive: bool, seed: int = 1):
    schema = random_schema(
        relations=4, max_arity=2, dependent_ratio=0.0, seed=seed
    )
    instance = random_instance(schema, tuples_per_relation=5, seed=seed)
    configuration = random_configuration(instance, fraction=0.4, seed=seed)
    if positive:
        query = random_pq(schema, disjuncts=2, atoms_per_disjunct=max(1, query_size // 2), seed=seed)
    else:
        query = random_cq(schema, atoms=query_size, variables=query_size, seed=seed)
    method = schema.access_methods[0]
    binding = tuple("d00" for _ in method.input_places)
    access = Access(method, binding)
    return query, access, configuration


@pytest.mark.experiment("T1-IR-ind")
@pytest.mark.parametrize("query_size", [2, 3, 4, 5])
def test_immediate_relevance_cq_scaling(benchmark, query_size):
    query, access, configuration = _setup(query_size, positive=False)
    result = benchmark(
        lambda: is_immediately_relevant(query, access, configuration)
    )
    assert result in (True, False)


@pytest.mark.experiment("T1-IR-ind-PQ")
@pytest.mark.parametrize("query_size", [2, 4])
def test_immediate_relevance_pq_scaling(benchmark, query_size):
    query, access, configuration = _setup(query_size, positive=True)
    result = benchmark(
        lambda: is_immediately_relevant(query, access, configuration)
    )
    assert result in (True, False)
