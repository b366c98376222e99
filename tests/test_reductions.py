"""Tests for the Section 3 reductions, the tiling gadgets, the Boolean gadget,
and the critical-tuple bridge."""

from __future__ import annotations

import pytest

from repro import (
    Access,
    Configuration,
    ContainmentOptions,
    containment_to_ltr,
    decide_containment,
    ltr_to_containment,
    parse_cq,
)
from repro.core import is_ltr_direct
from repro.exceptions import QueryError
from repro.reductions import (
    add_boolean_gadget,
    and_chain_atoms,
    boolean_gadget_facts,
    has_tiling,
    is_critical_tuple_bruteforce,
    is_critical_via_ltr,
    or_chain_atoms,
    sample_problems,
    solve_tiling,
    tiling_to_containment,
)
from repro.schema import SchemaBuilder
from repro.workloads import containment_example_scenario, dependent_chain_scenario


class TestProposition33:
    """Containment reduces to the complement of LTR."""

    def _check(self, schema, configuration, query1, query2, expected_containment):
        instance = containment_to_ltr(query1, query2, configuration, schema)
        ltr = is_ltr_direct(
            instance.query, instance.access, instance.configuration, instance.schema
        )
        assert ltr == (not expected_containment)

    def test_example_3_2_contained(self):
        schema, configuration, query_r, query_s = containment_example_scenario()
        assert decide_containment(query_r, query_s, schema, configuration)
        self._check(schema, configuration, query_r, query_s, expected_containment=True)

    def test_example_3_2_reverse_not_contained(self):
        schema, configuration, query_r, query_s = containment_example_scenario()
        assert not decide_containment(query_s, query_r, schema, configuration)
        self._check(schema, configuration, query_s, query_r, expected_containment=False)

    def test_classical_containment_case(self, binary_schema):
        specific = parse_cq(binary_schema, "R(x, y), R(y, z)")
        general = parse_cq(binary_schema, "R(u, v)")
        configuration = Configuration.empty(binary_schema)
        self._check(binary_schema, configuration, specific, general, True)
        self._check(binary_schema, configuration, general, specific, False)

    def test_existing_relation_name_rejected(self, binary_schema):
        query = parse_cq(binary_schema, "R(x, y)")
        with pytest.raises(QueryError):
            containment_to_ltr(
                query,
                query,
                Configuration.empty(binary_schema),
                binary_schema,
                witness_relation_name="R",
            )


class TestProposition34:
    """LTR reduces to the complement of containment."""

    def _check(self, query, access, configuration, schema):
        expected = is_ltr_direct(query, access, configuration, schema)
        instance = ltr_to_containment(query, access, configuration, schema)
        non_containment = not decide_containment(
            instance.contained_query,
            instance.containing_query,
            instance.schema,
            instance.configuration,
        )
        assert non_containment == expected

    def test_chain_scenario(self):
        scenario = dependent_chain_scenario(2)
        self._check(
            scenario.query, scenario.access, scenario.configuration, scenario.schema
        )

    def test_irrelevant_access(self, dependent_schema):
        query = parse_cq(dependent_schema, "S(x)")
        domain = dependent_schema.relation("R").domain_of(0)
        configuration = Configuration.empty(dependent_schema).with_constants(
            [("v", domain)]
        )
        access = Access(dependent_schema.access_method("accR"), ("v",))
        self._check(query, access, configuration, dependent_schema)

    def test_isbind_fact_added(self, dependent_schema):
        query = parse_cq(dependent_schema, "R(x)")
        domain = dependent_schema.relation("R").domain_of(0)
        configuration = Configuration.empty(dependent_schema).with_constants(
            [("v", domain)]
        )
        access = Access(dependent_schema.access_method("accR"), ("v",))
        instance = ltr_to_containment(query, access, configuration, dependent_schema)
        assert instance.configuration.contains("IsBind__reduction", ("v",))


class TestTiling:
    def test_solver_finds_identity_tiling(self):
        problems = dict(sample_problems(2))
        solution = solve_tiling(problems["solvable-identity"])
        assert solution is not None
        assert solution[0] == problems["solvable-identity"].initial_row

    def test_solver_respects_constraints(self):
        problems = dict(sample_problems(2))
        assert not has_tiling(problems["unsolvable-vertical"])
        assert not has_tiling(problems["unsolvable-horizontal"])

    def test_solution_rows_are_valid(self):
        problems = dict(sample_problems(3))
        solution = solve_tiling(problems["solvable-one-step"])
        assert solution is not None
        problem = problems["solvable-one-step"]
        for row in solution:
            assert problem.row_ok(row)
        for below, above in zip(solution, solution[1:]):
            assert problem.rows_ok(below, above)

    @pytest.mark.parametrize("name,problem", sample_problems(2))
    def test_reduction_agrees_with_solver(self, name, problem):
        instance = tiling_to_containment(problem)
        contained = decide_containment(
            instance.final_row_query,
            instance.violation_query,
            instance.schema,
            instance.configuration,
            ContainmentOptions(max_support_facts=0),
        )
        assert (not contained) == has_tiling(problem), name

    def test_reduction_schema_shape(self):
        problems = dict(sample_problems(2))
        instance = tiling_to_containment(problems["solvable-identity"])
        problem = problems["solvable-identity"]
        expected_relations = len(problem.tile_types) * problem.width
        assert len(instance.schema.relations) == expected_relations
        assert all(
            len(instance.schema.methods_for(relation)) == 1
            for relation in instance.schema.relations
        )


class TestBooleanGadget:
    def test_gadget_facts_are_truth_tables(self):
        builder = SchemaBuilder()
        add_boolean_gadget(builder)
        schema = builder.build()
        configuration = Configuration.empty(schema)
        configuration.add_all(boolean_gadget_facts())
        assert configuration.contains("And", (1, 1, 1))
        assert configuration.contains("Or", (0, 0, 0))
        assert configuration.contains("Eq", (0, 0, 1))
        assert configuration.contains("P", (1,))
        assert not configuration.contains("And", (1, 1, 0))

    def test_or_chain_computes_disjunction(self):
        from repro.queries import ConjunctiveQuery, Variable, evaluate

        builder = SchemaBuilder()
        add_boolean_gadget(builder)
        schema = builder.build()
        configuration = Configuration.empty(schema)
        configuration.add_all(boolean_gadget_facts())
        result = Variable("r")
        atoms = or_chain_atoms(schema, (0, 1, 0), result)
        query = ConjunctiveQuery(tuple(atoms), (result,))
        assert evaluate(query, configuration) == frozenset({(1,)})

    def test_and_chain_computes_conjunction(self):
        from repro.queries import ConjunctiveQuery, Variable, evaluate

        builder = SchemaBuilder()
        add_boolean_gadget(builder)
        schema = builder.build()
        configuration = Configuration.empty(schema)
        configuration.add_all(boolean_gadget_facts())
        result = Variable("r")
        atoms = and_chain_atoms(schema, (1, 1, 0), result)
        query = ConjunctiveQuery(tuple(atoms), (result,))
        assert evaluate(query, configuration) == frozenset({(0,)})


class TestCriticalTuple:
    def _schema(self):
        builder = SchemaBuilder()
        builder.domain("D")
        builder.relation("R", [("a", "D"), ("b", "D")])
        builder.access("critR", "R", inputs=["a", "b"], dependent=False)
        return builder.build()

    def test_bridge_agreement_on_small_cases(self):
        schema = self._schema()
        domain_values = ["d1", "d2"]
        cases = [
            ("R(x, x)", ("d1", "d1"), True),
            ("R(x, x)", ("d1", "d2"), False),
            ("R(x, y)", ("d1", "d2"), True),
        ]
        for text, values, expected in cases:
            query = parse_cq(schema, text)
            brute = is_critical_tuple_bruteforce(query, "R", values, domain_values)
            via_ltr = is_critical_via_ltr(query, "R", values, schema)
            assert brute == expected, text
            assert via_ltr == expected, text

    def test_requires_boolean_independent_method(self):
        builder = SchemaBuilder()
        builder.domain("D")
        builder.relation("R", [("a", "D")])
        builder.access("m", "R", inputs=["a"], dependent=True)
        schema = builder.build()
        query = parse_cq(schema, "R(x)")
        with pytest.raises(QueryError):
            is_critical_via_ltr(query, "R", ("d1",), schema)
