"""Unit tests for the crayfish-chase production-plan search."""

from __future__ import annotations


from repro import Configuration, Fact, SchemaBuilder
from repro.chase import FreshConstants, can_ever_produce, iter_production_plans
from repro.schema import AbstractDomain


class TestFreshConstants:
    def test_fresh_values_avoid_reserved(self):
        fresh = FreshConstants({"fresh:D:0"})
        domain = AbstractDomain("D")
        value = fresh.new(domain)
        assert value != "fresh:D:0"
        assert fresh.new(domain) != value

    def test_enumerated_domain_exhaustion(self):
        domain = AbstractDomain("B", frozenset({0, 1}))
        fresh = FreshConstants({0})
        assert fresh.new(domain) == 1
        assert fresh.new(domain) is None

    def test_several(self):
        domain = AbstractDomain("D")
        fresh = FreshConstants()
        assert len(fresh.several(domain, 3)) == 3


def _chain_schema():
    builder = SchemaBuilder()
    builder.domain("D")
    builder.relation("L1", [("src", "D"), ("dst", "D")])
    builder.relation("L2", [("src", "D"), ("dst", "D")])
    builder.relation("Fixed", [("a", "D")])
    builder.access("m1", "L1", inputs=["src"], dependent=True)
    builder.access("m2", "L2", inputs=["src"], dependent=True)
    return builder.build()


class TestProductionPlans:
    def test_can_ever_produce(self):
        schema = _chain_schema()
        assert can_ever_produce(schema, Fact("L1", ("a", "b")))
        assert not can_ever_produce(schema, Fact("Fixed", ("a",)))

    def test_direct_production_when_inputs_known(self):
        schema = _chain_schema()
        domain = schema.relation("L1").domain_of(0)
        configuration = Configuration.empty(schema).with_constants([("a", domain)])
        targets = [Fact("L1", ("a", "b")), Fact("L2", ("b", "c"))]
        plans = list(iter_production_plans(schema, configuration, targets))
        assert plans
        plan = plans[0]
        assert plan.path.is_well_formed()
        assert plan.support_facts == ()
        final = plan.final_configuration()
        assert final.contains("L1", ("a", "b"))
        assert final.contains("L2", ("b", "c"))

    def test_ordering_is_discovered(self):
        """L2(b, c) can only be produced after L1(a, b), whatever the input order."""
        schema = _chain_schema()
        domain = schema.relation("L1").domain_of(0)
        configuration = Configuration.empty(schema).with_constants([("a", domain)])
        targets = [Fact("L2", ("b", "c")), Fact("L1", ("a", "b"))]
        plans = list(iter_production_plans(schema, configuration, targets))
        assert plans
        first_step = plans[0].path.steps[0]
        assert first_step.access.relation.name == "L1"

    def test_support_facts_introduced_when_needed(self):
        """Producing L2(v, w) with v unknown requires a support fact emitting v."""
        schema = _chain_schema()
        domain = schema.relation("L1").domain_of(0)
        configuration = Configuration.empty(schema).with_constants([("a", domain)])
        targets = [Fact("L2", ("v", "w"))]
        plans = list(iter_production_plans(schema, configuration, targets))
        assert plans
        assert any(plan.support_facts for plan in plans)
        for plan in plans:
            assert plan.path.is_well_formed()
            assert plan.final_configuration().contains("L2", ("v", "w"))

    def test_unproducible_target_yields_no_plan(self):
        schema = _chain_schema()
        configuration = Configuration.empty(schema)
        plans = list(
            iter_production_plans(schema, configuration, [Fact("Fixed", ("a",))])
        )
        assert plans == []

    def test_targets_already_in_configuration_are_skipped(self):
        schema = _chain_schema()
        configuration = Configuration(schema, {"L1": [("a", "b")]})
        plans = list(
            iter_production_plans(schema, configuration, [Fact("L1", ("a", "b"))])
        )
        assert plans
        assert plans[0].path.steps == []

    def test_support_budget_respected(self):
        schema = _chain_schema()
        configuration = Configuration.empty(schema)
        targets = [Fact("L2", ("v", "w"))]
        plans = list(
            iter_production_plans(
                schema, configuration, targets, max_support_facts=0
            )
        )
        assert plans == []


class TestReachabilityPruning:
    def test_target_supplied_values_are_not_pruned(self):
        """Regression: the root reachability prune must count the values the
        targets themselves make available — here the independent access on R
        invents the value that S's dependent input needs, so a plan exists
        even though no method *outputs* a D value."""
        builder = SchemaBuilder()
        builder.domain("D")
        builder.domain("E")
        builder.relation("R", [("x", "D")])
        builder.access("accR", "R", inputs=["x"], dependent=False)
        builder.relation("S", [("x", "D"), ("y", "E")])
        builder.access("accS", "S", inputs=["x"], dependent=True)
        schema = builder.build()
        configuration = Configuration.empty(schema)
        plans = list(
            iter_production_plans(
                schema,
                configuration,
                [Fact("R", ("f",)), Fact("S", ("f", "g"))],
            )
        )
        assert plans, "valid plan pruned by the reachability closure"
        produced = {fact.relation for fact in plans[0].target_facts}
        assert produced == {"R", "S"}
        assert plans[0].path.is_well_formed()

    def test_truly_unreachable_domain_still_pruned(self):
        """The fix must not disable pruning: a dependent input in a domain no
        method can populate admits no plan."""
        builder = SchemaBuilder()
        builder.domain("D")
        builder.domain("E")
        builder.relation("S", [("x", "D"), ("y", "E")])
        builder.access("accS", "S", inputs=["x"], dependent=True)
        schema = builder.build()
        configuration = Configuration.empty(schema)
        plans = list(
            iter_production_plans(
                schema, configuration, [Fact("S", ("unknown", "g"))]
            )
        )
        assert plans == []
