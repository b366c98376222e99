"""Tests for long-term relevance with dependent accesses (Section 5)."""

from __future__ import annotations

import pytest

from repro import Access, Configuration, is_long_term_relevant, parse_cq, parse_pq
from repro.core import (
    ContainmentOptions,
    is_ltr_direct,
    is_ltr_small_arity,
    is_ltr_via_containment_cq,
    is_ltr_via_containment_pq,
)
from repro.exceptions import QueryError
from repro.workloads import dependent_chain_scenario, small_arity_scenario


class TestDirectSearch:
    def test_example_2_1_join_chain(self, mixed_schema):
        """An access on A is LTR for A ⋈ B because its outputs feed the B access."""
        query = parse_cq(mixed_schema, "A(x, y), B(y, z)")
        configuration = Configuration.empty(mixed_schema)
        domain = mixed_schema.relation("A").domain_of(0)
        configuration.add_constant("start", domain)
        access = Access(mixed_schema.access_method("mA"), ("start",))
        assert is_ltr_direct(query, access, configuration, mixed_schema)

    def test_chain_scenario_relevant(self):
        scenario = dependent_chain_scenario(3)
        assert is_ltr_direct(
            scenario.query, scenario.access, scenario.configuration, scenario.schema
        )

    def test_chain_scenario_wrong_start_not_well_formed(self):
        scenario = dependent_chain_scenario(2)
        access = Access(scenario.schema.access_method("accL1"), ("unknown",))
        assert not is_ltr_direct(
            scenario.query, access, scenario.configuration, scenario.schema
        )

    def test_access_on_last_link_alone_is_relevant_only_with_known_input(self):
        scenario = dependent_chain_scenario(2)
        schema = scenario.schema
        domain = schema.relation("L2").domain_of(0)
        configuration = scenario.configuration.with_constants([("mid", domain)])
        access = Access(schema.access_method("accL2"), ("mid",))
        # L1 can still be produced from "start", so the L2 access can matter.
        assert is_ltr_direct(scenario.query, access, configuration, schema)

    def test_certain_query_never_relevant(self):
        scenario = dependent_chain_scenario(2)
        configuration = Configuration(
            scenario.schema, {"L1": [("start", "m")], "L2": [("m", "end")]}
        )
        assert not is_ltr_direct(
            scenario.query, scenario.access, configuration, scenario.schema
        )

    def test_relation_without_access_blocks(self, dependent_schema):
        # Q = R(x) ∧ S(x) is fine, but a query over a missing relation never
        # becomes true; here we check the direct search handles ground atoms
        # over inaccessible relations gracefully by never claiming relevance.
        query = parse_cq(dependent_schema, "R(x), S(x)")
        domain = dependent_schema.relation("R").domain_of(0)
        configuration = Configuration.empty(dependent_schema).with_constants(
            [("v", domain)]
        )
        access = Access(dependent_schema.access_method("accR"), ("v",))
        assert is_ltr_direct(query, access, configuration, dependent_schema)

    def test_non_boolean_rejected(self, dependent_schema):
        query = parse_cq(dependent_schema, "Q(x) :- R(x)")
        access = Access(dependent_schema.access_method("accS"), ())
        with pytest.raises(QueryError):
            is_ltr_direct(
                query, access, Configuration.empty(dependent_schema), dependent_schema
            )


class TestContainmentBasedProcedures:
    def test_cq_procedure_agrees_with_direct_on_chain(self):
        scenario = dependent_chain_scenario(2)
        direct = is_ltr_direct(
            scenario.query, scenario.access, scenario.configuration, scenario.schema
        )
        via_containment = is_ltr_via_containment_cq(
            scenario.query, scenario.access, scenario.configuration, scenario.schema
        )
        assert direct == via_containment is True

    def test_pq_procedure_agrees_with_direct_on_chain(self):
        scenario = dependent_chain_scenario(2)
        direct = is_ltr_direct(
            scenario.query, scenario.access, scenario.configuration, scenario.schema
        )
        via_containment = is_ltr_via_containment_pq(
            scenario.query, scenario.access, scenario.configuration, scenario.schema
        )
        assert direct == via_containment is True

    def test_cq_procedure_handles_repeated_subgoals(self):
        """Regression: the compatible/other split must partition atom
        *occurrences* by index — an equality-based membership split conflates
        duplicate subgoals."""
        scenario = dependent_chain_scenario(2)
        query = parse_cq(
            scenario.schema, "L1(x, y), L1(x, y), L2(y, z)", name="dup-subgoal"
        )
        assert len(query.atoms) == 3  # the duplicate occurrence is retained
        direct = is_ltr_direct(
            query, scenario.access, scenario.configuration, scenario.schema
        )
        via_containment = is_ltr_via_containment_cq(
            query, scenario.access, scenario.configuration, scenario.schema
        )
        assert direct == via_containment is True

    def test_cq_procedure_repeated_subgoal_negative_case(self, dependent_schema):
        """Duplicated subgoals must not flip a negative verdict either."""
        query = parse_cq(dependent_schema, "S(x), S(x)", name="dup-negative")
        domain = dependent_schema.relation("R").domain_of(0)
        configuration = Configuration.empty(dependent_schema).with_constants(
            [("v", domain)]
        )
        access = Access(dependent_schema.access_method("accR"), ("v",))
        assert not is_ltr_direct(query, access, configuration, dependent_schema)
        assert not is_ltr_via_containment_cq(
            query, access, configuration, dependent_schema
        )

    def test_cq_procedure_negative_case(self, dependent_schema):
        """Example 3.2 flipped: the access on R cannot matter for ∃x S(x)."""
        query = parse_cq(dependent_schema, "S(x)")
        domain = dependent_schema.relation("R").domain_of(0)
        configuration = Configuration.empty(dependent_schema).with_constants(
            [("v", domain)]
        )
        access = Access(dependent_schema.access_method("accR"), ("v",))
        assert not is_ltr_direct(query, access, configuration, dependent_schema)
        assert not is_ltr_via_containment_cq(
            query, access, configuration, dependent_schema
        )
        assert not is_ltr_via_containment_pq(
            query, access, configuration, dependent_schema
        )

    def test_facade_auto_uses_direct_for_dependent(self):
        scenario = dependent_chain_scenario(2)
        assert is_long_term_relevant(
            scenario.query, scenario.access, scenario.configuration, scenario.schema
        )
        assert is_long_term_relevant(
            scenario.query,
            scenario.access,
            scenario.configuration,
            scenario.schema,
            method="containment-cq",
        )

    def test_unknown_method_rejected(self):
        scenario = dependent_chain_scenario(2)
        with pytest.raises(QueryError):
            is_long_term_relevant(
                scenario.query,
                scenario.access,
                scenario.configuration,
                scenario.schema,
                method="nope",
            )


class TestSmallArity:
    def test_small_arity_scenario(self):
        scenario = small_arity_scenario(3)
        assert is_ltr_small_arity(
            scenario.query, scenario.access, scenario.configuration, scenario.schema
        )

    def test_preconditions_enforced(self, binary_schema):
        # binary_schema has independent methods, violating Theorem 6.1.
        query = parse_cq(binary_schema, "R(x, y), S(y, z)")
        access = Access(binary_schema.access_method("mR"), (2,))
        with pytest.raises(QueryError):
            is_ltr_small_arity(
                query, access, Configuration.empty(binary_schema), binary_schema
            )

    def test_disconnected_query_rejected(self):
        scenario = small_arity_scenario(2)
        disconnected = parse_cq(scenario.schema, "L1(x, y), L2(u, v)")
        with pytest.raises(QueryError):
            is_ltr_small_arity(
                disconnected, scenario.access, scenario.configuration, scenario.schema
            )

    def test_chain_bound_zero_misses_witnesses_beyond_direct_production(self):
        """The chain-length knob is a real budget: with more links allowed the
        procedure finds witnesses needing support chains."""
        scenario = dependent_chain_scenario(3)
        schema = scenario.schema
        # Access to the *last* link; its input value is unknown, so a witness
        # must build a support chain from "start" through L1 and L2.
        domain = schema.relation("L3").domain_of(0)
        configuration = scenario.configuration
        access = Access(schema.access_method("accL3"), ("start",))
        # Binding "start" has the wrong provenance for L3 but is well-formed;
        # the witness maps the L3 subgoal to the access and produces L1, L2.
        assert is_ltr_small_arity(
            scenario.query, access, configuration, schema, chain_length_bound=6
        )


class TestSearchWork:
    def test_bank_batch_enumerates_only_candidates_the_access_can_start(
        self, monkeypatch
    ):
        """The cold 4-query bank batch enumerates exactly the fact-sets that
        reach a production-plan search; a probe no subgoal is compatible
        with enumerates nothing."""
        import repro.core.longterm_dependent as ltr_module
        import repro.core.relevance as relevance_module
        from repro.runtime import QueryServer
        from repro.workloads import bank_multi_query_scenario

        enumerated = []
        plan_searches = []
        probes = []  # [method name, binding, items enumerated, found]
        original_iter = ltr_module.iter_witness_assignments
        original_plans = ltr_module.iter_production_plans
        original_search = relevance_module.find_ltr_witness_steps

        def iter_witness_assignments(*args, **kwargs):
            for item in original_iter(*args, **kwargs):
                enumerated.append(item)
                probes[-1][2] += 1
                yield item

        def iter_production_plans(*args, **kwargs):
            plan_searches.append(args)
            return original_plans(*args, **kwargs)

        def find_ltr_witness_steps(query, access, *args, **kwargs):
            probes.append([access.method.name, access.binding, 0, None])
            steps = original_search(query, access, *args, **kwargs)
            probes[-1][3] = steps is not None
            return steps

        monkeypatch.setattr(ltr_module, "iter_witness_assignments", iter_witness_assignments)
        monkeypatch.setattr(ltr_module, "iter_production_plans", iter_production_plans)
        monkeypatch.setattr(
            relevance_module, "find_ltr_witness_steps", find_ltr_witness_steps
        )
        ltr_module.containment_cq_memo().clear()
        scenario = bank_multi_query_scenario(4)
        result = QueryServer(scenario.mediator()).answer(list(scenario.queries))

        assert result.boolean_answers == (True, True, False, False)
        assert len(probes) == 54
        assert len(plan_searches) == 46
        assert len(enumerated) == len(plan_searches)
        negative_approvals = [
            probe for probe in probes if probe[0] == "StateApprAcc" and not probe[3]
        ]
        assert len(negative_approvals) == 8
        assert all(items == 0 for _name, _binding, items, _found in negative_approvals)

    def test_containment_with_query2_already_true_enumerates_nothing(
        self, monkeypatch
    ):
        """``L1(x,y), L2(y,z) ⊑ L1(x,y)`` over a 10-fact chain: the containing
        query already holds, so by monotonicity it holds on every reachable
        configuration and the witness search never starts."""
        import repro.core.containment as containment_module
        from repro.core import decide_containment
        from repro.workloads import chain_schema

        enumerated = []
        original_iter = containment_module.iter_witness_assignments

        def iter_witness_assignments(*args, **kwargs):
            for item in original_iter(*args, **kwargs):
                enumerated.append(item)
                yield item

        monkeypatch.setattr(
            containment_module, "iter_witness_assignments", iter_witness_assignments
        )
        schema = chain_schema(2)
        configuration = Configuration.empty(schema)
        for index in range(10):
            configuration.add("L1", (f"a{index}", f"b{index}"))
            configuration.add("L2", (f"b{index}", f"c{index}"))
        query1 = parse_cq(schema, "L1(x, y), L2(y, z)")
        query2 = parse_cq(schema, "L1(x, y)")
        assert decide_containment(query1, query2, schema, configuration)
        assert enumerated == []
