"""Tests for the workload generators and named scenarios."""

from __future__ import annotations

import pytest

from repro import evaluate_boolean
from repro.core import is_long_term_relevant
from repro.workloads import (
    chain_query,
    chain_schema,
    containment_example_scenario,
    dependent_chain_scenario,
    diamond_scenario,
    fanout_scenario,
    independent_pq_scenario,
    independent_scenario,
    random_configuration,
    random_cq,
    random_instance,
    random_pq,
    random_schema,
    small_arity_scenario,
    star_query,
)


class TestGenerators:
    def test_random_schema_is_reproducible(self):
        first = random_schema(seed=5)
        second = random_schema(seed=5)
        assert [r.name for r in first.relations] == [r.name for r in second.relations]
        assert [m.name for m in first.access_methods] == [
            m.name for m in second.access_methods
        ]

    def test_random_instance_respects_schema(self):
        schema = random_schema(relations=3, seed=2)
        instance = random_instance(schema, tuples_per_relation=4, seed=2)
        for relation in schema.relations:
            for row in instance.tuples(relation):
                assert len(row) == relation.arity

    def test_random_configuration_is_consistent(self):
        schema = random_schema(seed=3)
        instance = random_instance(schema, seed=3)
        configuration = random_configuration(instance, fraction=0.5, seed=3)
        assert configuration.is_consistent_with(instance)

    def test_chain_schema_and_query(self):
        schema = chain_schema(4)
        query = chain_query(schema, 4)
        assert len(query.atoms) == 4
        assert query.is_connected()
        assert schema.all_dependent()

    def test_star_query(self):
        schema = chain_schema(3)
        query = star_query(schema, ["L1", "L2", "L3"])
        assert len(query.atoms) == 3
        assert query.is_connected()

    def test_random_cq_is_well_formed(self):
        schema = random_schema(seed=11)
        for seed in range(5):
            query = random_cq(schema, atoms=3, seed=seed)
            assert query.is_boolean
            assert len(query.atoms) == 3

    def test_random_pq_is_well_formed(self):
        schema = random_schema(seed=13)
        query = random_pq(schema, disjuncts=3, seed=4)
        assert query.is_boolean
        assert len(query.to_ucq()) <= 3


class TestScenarios:
    def test_independent_scenario_runs(self):
        scenario = independent_scenario()
        assert scenario.schema.all_independent()
        # The relevance procedures accept the scenario without error.
        is_long_term_relevant(
            scenario.query, scenario.access, scenario.configuration, scenario.schema
        )

    def test_independent_pq_scenario_runs(self):
        scenario = independent_pq_scenario()
        is_long_term_relevant(
            scenario.query, scenario.access, scenario.configuration, scenario.schema
        )

    def test_dependent_chain_scenario_expectation(self):
        scenario = dependent_chain_scenario(3)
        assert scenario.expected_long_term is True
        assert is_long_term_relevant(
            scenario.query, scenario.access, scenario.configuration, scenario.schema
        )

    def test_small_arity_scenario_matches_preconditions(self):
        scenario = small_arity_scenario(2)
        assert scenario.schema.max_arity() == 2
        assert scenario.schema.all_dependent()

    def test_containment_example_scenario(self):
        schema, configuration, query_r, query_s = containment_example_scenario()
        assert not evaluate_boolean(query_r, configuration)
        assert not evaluate_boolean(query_s, configuration)
        assert schema.all_dependent()

    @pytest.mark.parametrize("branches", [1, 2, 4])
    def test_fanout_scenario_expectation(self, branches):
        scenario = fanout_scenario(branches)
        assert scenario.expected_long_term is True
        assert is_long_term_relevant(
            scenario.query, scenario.access, scenario.configuration, scenario.schema
        )

    @pytest.mark.parametrize("width", [2, 3])
    def test_diamond_scenario_expectation(self, width):
        scenario = diamond_scenario(width)
        assert scenario.expected_long_term is True
        assert is_long_term_relevant(
            scenario.query, scenario.access, scenario.configuration, scenario.schema
        )

    def test_fanout_audit_access_is_never_relevant(self):
        from repro import Access

        scenario = fanout_scenario(2, audit=True)
        configuration = scenario.configuration.copy()
        configuration.add("Hub", ("start", "m0"))
        audit = Access(scenario.schema.access_method("accAudit"), ("m0",))
        assert not is_long_term_relevant(
            scenario.query, audit, configuration, scenario.schema
        )

    @pytest.mark.parametrize(
        "scenario",
        [fanout_scenario(3), diamond_scenario(2), diamond_scenario(3)],
        ids=lambda s: s.name,
    )
    def test_shaped_scenarios_answer_like_exhaustive(self, scenario):
        from repro.planner import exhaustive_strategy, relevance_guided_strategy

        exhaustive = exhaustive_strategy(scenario.mediator(), scenario.query)
        guided = relevance_guided_strategy(scenario.mediator(), scenario.query)
        assert guided.boolean_answer == exhaustive.boolean_answer
        assert guided.boolean_answer is True
        assert guided.accesses_made <= exhaustive.accesses_made

    def test_scenario_without_hidden_instance_rejects_mediator(self):
        scenario = dependent_chain_scenario(2)
        with pytest.raises(ValueError):
            scenario.mediator()
