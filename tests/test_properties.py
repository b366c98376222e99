"""Property-based tests (hypothesis) for core invariants.

The invariants checked here are the load-bearing ones of the paper's model:

* evaluation of positive queries is monotone in the instance;
* certain answers only grow along well-formed access paths;
* the Chandra–Merlin containment test agrees with brute-force evaluation
  comparison on small instances;
* immediate relevance implies long-term relevance (an increasing response is
  a length-one witness path);
* the truncation of a path is a prefix semantically: its final configuration
  is contained in the full path's final configuration;
* the direct long-term relevance search, which classifies subgoals inside
  the enumeration, finds exactly the witness of the assign-then-classify
  search it replaced (and agrees with the independent-schema procedure);
* evaluating a query through a delta (``holds_through``) agrees with
  evaluating it on a copy grown by the delta, and leaves the configuration
  exactly as it was, also when adding a fact raises;
* the containment witness search, which checks each candidate through its
  target facts, finds exactly the witness of the copy-then-evaluate search it
  replaced, and decides the size-40 contained chain case in well under a
  second.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import (
    Access,
    AccessPath,
    AccessResponse,
    Configuration,
    Instance,
    SchemaBuilder,
    cq_contained_in,
    evaluate,
    evaluate_boolean,
    is_immediately_relevant,
)
from repro.chase import iter_production_plans
from repro.chase.fresh import FreshConstants
from repro.core import (
    ContainmentOptions,
    ContainmentWitness,
    decide_containment,
    find_non_containment_witness,
    is_ltr_independent,
)
from repro.core.assignments import (
    SubgoalClassifier,
    compatible_with_access,
    iter_witness_assignments,
)
from repro.core.relevance import find_ltr_witness_steps
from repro.data import Fact, is_well_formed
from repro.exceptions import SchemaError
from repro.queries import ConjunctiveQuery, holds_through, is_certain, parse_cq
from repro.queries.atoms import Atom
from repro.queries.terms import Variable
from repro.schema import Schema
from repro.workloads import (
    chain_schema,
    random_configuration,
    random_cq,
    random_instance,
    random_pq,
    random_schema,
)


def _schema():
    builder = SchemaBuilder()
    builder.domain("D")
    builder.relation("R", [("a", "D"), ("b", "D")])
    builder.relation("S", [("a", "D"), ("b", "D")])
    builder.access("mR", "R", inputs=["b"], dependent=False)
    builder.access("mS", "S", inputs=["a"], dependent=False)
    return builder.build()


SCHEMA = _schema()
VALUES = st.sampled_from(["v0", "v1", "v2"])
PAIRS = st.tuples(VALUES, VALUES)
FACTSETS = st.fixed_dictionaries(
    {
        "R": st.lists(PAIRS, max_size=5),
        "S": st.lists(PAIRS, max_size=5),
    }
)
QUERIES = st.integers(min_value=0, max_value=200).map(
    lambda seed: random_cq(SCHEMA, atoms=3, variables=3, seed=seed)
)


common_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@common_settings
@given(facts=FACTSETS, extra=PAIRS, query=QUERIES)
def test_positive_query_evaluation_is_monotone(facts, extra, query):
    smaller = Instance(SCHEMA, facts)
    larger = smaller.copy()
    larger.add("R", extra)
    assert evaluate(query, smaller) <= evaluate(query, larger)


@common_settings
@given(facts=FACTSETS, query=QUERIES, binding=VALUES, response=st.lists(PAIRS, max_size=3))
def test_certain_answers_grow_along_paths(facts, query, binding, response):
    configuration = Configuration(SCHEMA, facts)
    access = Access(SCHEMA.access_method("mR"), (binding,))
    sound_response = AccessResponse(
        access, tuple((value, binding) for value, _ in response)
    )
    path = AccessPath(configuration, [sound_response])
    before = evaluate(query, configuration)
    after = evaluate(query, path.final_configuration())
    assert before <= after


@common_settings
@given(query1=QUERIES, query2=QUERIES, facts=FACTSETS)
def test_containment_test_is_sound_for_evaluation(query1, query2, facts):
    """If Q1 ⊑ Q2 (Chandra–Merlin) then Q1's answers are included in Q2's."""
    if cq_contained_in(query1, query2):
        instance = Instance(SCHEMA, facts)
        assert evaluate_boolean(query1, instance) <= evaluate_boolean(query2, instance)


@common_settings
@given(query=QUERIES, facts=FACTSETS, binding=VALUES)
def test_immediate_relevance_implies_long_term_relevance(query, facts, binding):
    configuration = Configuration(SCHEMA, facts)
    access = Access(SCHEMA.access_method("mR"), (binding,))
    if is_immediately_relevant(query, access, configuration):
        assert is_ltr_independent(query, access, configuration, SCHEMA)


@common_settings
@given(facts=FACTSETS, binding1=VALUES, binding2=VALUES, rows=st.lists(PAIRS, max_size=3))
def test_truncation_final_configuration_is_contained_in_full(facts, binding1, binding2, rows):
    configuration = Configuration(SCHEMA, facts)
    first = Access(SCHEMA.access_method("mR"), (binding1,))
    second = Access(SCHEMA.access_method("mS"), (binding2,))
    path = AccessPath(
        configuration,
        [
            AccessResponse(first, tuple((value, binding1) for value, _ in rows)),
            AccessResponse(second, tuple((binding2, value) for _, value in rows)),
        ],
    )
    truncated = path.truncation().final_configuration()
    full = path.final_configuration()
    assert truncated.issubset(full)


@common_settings
@given(query=QUERIES)
def test_query_contained_in_itself(query):
    assert cq_contained_in(query, query)


@common_settings
@given(facts=FACTSETS, query=QUERIES)
def test_canonical_instance_satisfies_its_query(facts, query):
    from repro.queries import canonical_instance

    assert evaluate_boolean(query, canonical_instance(query))


# --------------------------------------------------------------------------- #
# Direct LTR search vs. the assign-then-classify reference
# --------------------------------------------------------------------------- #
def _reference_feasible(atoms, configuration, schema, access):
    always = [schema.has_access(atom.relation.name) for atom in atoms]

    def feasible(atom_index, values):
        if always[atom_index]:
            return True
        atom = atoms[atom_index]
        if configuration.contains(atom.relation.name, values):
            return True
        if access is not None and atom.relation.name == access.relation.name:
            return access.matches(values)
        return False

    return feasible


def _reference_witness(query, configuration, schema, first_response, after_first, later_facts):
    options = ContainmentOptions()
    for plan in iter_production_plans(
        schema,
        after_first,
        later_facts,
        max_support_facts=options.max_support_facts,
        max_plans=options.max_plans_per_assignment,
        support_value_choices=options.support_value_choices,
        max_nodes=options.max_nodes,
    ):
        steps = (first_response,) + tuple(plan.path.steps)
        with AccessPath(configuration, list(steps)).truncation_view() as truncated:
            if not evaluate_boolean(query, truncated):
                return steps
    return None


def _reference_ltr_steps(query, access, configuration, schema):
    """The direct search as it was before the enumerator classified subgoals:
    enumerate every per-atom feasible assignment, then ground and classify
    each subgoal of it (absorbed / first / later / infeasible)."""
    if not is_well_formed(access, configuration) or is_certain(query, configuration):
        return None
    atoms = query.atoms
    searched = set()
    for assignment in iter_witness_assignments(
        atoms,
        query.variable_domains(),
        configuration,
        access,
        schema=schema,
        fresh_per_domain=max(1, len(query.variables)),
        atom_feasible=_reference_feasible(atoms, configuration, schema, access),
    ):
        first_facts, later_facts = [], []
        for atom in atoms:
            values = atom.ground_values(assignment)
            if configuration.contains(atom.relation.name, values):
                continue
            if atom.relation.name == access.relation.name and access.matches(values):
                first_facts.append(Fact(atom.relation.name, values))
            elif schema.has_access(atom.relation.name):
                later_facts.append(Fact(atom.relation.name, values))
            else:
                break
        else:
            key = (frozenset(first_facts), frozenset(later_facts))
            if not first_facts or key in searched:
                continue
            searched.add(key)
            first_response = AccessResponse(
                access, tuple(fact.values for fact in first_facts)
            )
            steps = _reference_witness(
                query,
                configuration,
                schema,
                first_response,
                configuration.extended_with(first_facts),
                later_facts,
            )
            if steps is not None:
                return steps
    return _reference_generic_steps(query, access, configuration, schema)


def _reference_generic_steps(query, access, configuration, schema):
    """Witness shape 2 of the reference: the first access returns one generic
    fact with fresh outputs."""
    method = access.method
    relation = method.relation
    if not method.output_places:
        return None
    output_domains = {relation.domain_of(place) for place in method.output_places}
    consumable = {
        other.relation.domain_of(place)
        for other in schema.access_methods
        if other.dependent
        for place in other.input_places
    }
    if not (output_domains & consumable) and not any(
        compatible_with_access(atom, access) for atom in query.atoms
    ):
        return None
    fresh = FreshConstants({value for value, _ in configuration.active_domain()})
    values = [None] * relation.arity
    for place, bound in access.binding_by_place.items():
        values[place] = bound
    for place in method.output_places:
        values[place] = fresh.new(relation.domain_of(place))
        if values[place] is None:
            return None
    first_response = AccessResponse(access, (tuple(values),))
    after_first = configuration.extended_with([Fact(relation.name, tuple(values))])
    atoms = query.atoms
    searched = set()
    for assignment in iter_witness_assignments(
        atoms,
        query.variable_domains(),
        after_first,
        None,
        schema=schema,
        fresh_per_domain=max(1, len(query.variables)),
        prefer_fresh=True,
        preferred_values=tuple(values[place] for place in method.output_places),
        atom_feasible=_reference_feasible(atoms, after_first, schema, None),
    ):
        later_facts = []
        for atom in atoms:
            atom_values = atom.ground_values(assignment)
            if after_first.contains(atom.relation.name, atom_values):
                continue
            if not schema.has_access(atom.relation.name):
                break
            later_facts.append(Fact(atom.relation.name, atom_values))
        else:
            if not later_facts or frozenset(later_facts) in searched:
                continue
            searched.add(frozenset(later_facts))
            steps = _reference_witness(
                query, configuration, schema, first_response, after_first, later_facts
            )
            if steps is not None:
                return steps
    return None


@st.composite
def ltr_inputs(draw):
    """A random schema, configuration, Boolean CQ and access.

    Some schemas are all-independent, some drop an access method (so a
    subgoal can be infeasible), and some queries repeat the accessed relation
    so that several subgoals are compatible with the binding.
    """
    seed = draw(st.integers(min_value=0, max_value=10_000))
    independent = draw(st.booleans())
    schema = random_schema(
        relations=3,
        max_arity=2,
        domains=2,
        dependent_ratio=0.0 if independent else 0.6,
        seed=seed,
    )
    methods = list(schema.access_methods)
    method = draw(st.sampled_from(methods))
    if draw(st.booleans()):
        dropped = draw(st.sampled_from([m for m in methods if m is not method]))
        schema = Schema(schema.relations, [m for m in methods if m is not dropped])
    instance = random_instance(schema, tuples_per_relation=3, value_pool=3, seed=seed)
    fraction = draw(st.sampled_from([0.0, 0.3, 0.6]))
    configuration = random_configuration(instance, fraction=fraction, seed=seed)
    query = random_cq(
        schema, atoms=draw(st.integers(min_value=1, max_value=3)), variables=3, seed=seed
    )
    relation = method.relation
    copies = draw(st.integers(min_value=0, max_value=2))
    if copies:
        atoms = list(query.atoms)
        base = next((atom for atom in atoms if atom.relation == relation), None)
        for copy in range(copies):
            terms = tuple(
                base.terms[place]
                if base is not None and draw(st.booleans())
                else Variable(f"w{copy}_{place}")
                for place in range(relation.arity)
            )
            atoms.append(Atom(relation, terms))
        query = ConjunctiveQuery(tuple(atoms), (), query.name)
    binding = []
    for place in method.input_places:
        domain = relation.domain_of(place)
        known = sorted(
            {value for value, value_domain in configuration.active_domain() if value_domain == domain}
        )
        binding.append(draw(st.sampled_from(known + [f"{domain.name.lower()}_new"])))
    return schema, configuration, query, Access(method, tuple(binding))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inputs=ltr_inputs())
def test_direct_ltr_search_matches_assign_then_classify_reference(inputs):
    schema, configuration, query, access = inputs
    steps = find_ltr_witness_steps(
        query, access, configuration, schema, max_assignments=None
    )
    assert steps == _reference_ltr_steps(query, access, configuration, schema)
    if not any(method.dependent for method in schema.access_methods):
        assert (steps is not None) == is_ltr_independent(
            query, access, configuration, schema
        )


# --------------------------------------------------------------------------- #
# Evaluation through a delta vs. evaluation on a grown copy
# --------------------------------------------------------------------------- #
def _state(configuration):
    return (
        configuration.fingerprint(),
        configuration.wire_facts(),
        configuration.active_domain(),
        configuration.active_values_by_domain(),
    )


def _random_query(draw, schema, seed):
    if draw(st.booleans()):
        return random_pq(schema, disjuncts=2, atoms_per_disjunct=2, variables=3, seed=seed)
    return random_cq(
        schema, atoms=draw(st.integers(min_value=1, max_value=3)), variables=3, seed=seed
    )


@st.composite
def delta_inputs(draw):
    """A configuration, a CQ or PQ false on it, and a delta of facts.

    The delta mixes facts of the source instance (some already in the
    configuration) with one that brings values new to the active domain.
    """
    seed = draw(st.integers(min_value=0, max_value=10_000))
    schema = random_schema(relations=3, max_arity=2, domains=2, seed=seed)
    instance = random_instance(schema, tuples_per_relation=4, value_pool=3, seed=seed)
    fraction = draw(st.sampled_from([0.0, 0.3, 0.6]))
    configuration = random_configuration(instance, fraction=fraction, seed=seed)
    query = _random_query(draw, schema, seed)
    assume(not evaluate_boolean(query, configuration))
    delta = draw(st.lists(st.sampled_from(list(instance.facts())), max_size=4))
    if draw(st.booleans()):
        relation = draw(st.sampled_from(schema.relations))
        delta.append(
            Fact(relation.name, tuple(f"new{place}" for place in range(relation.arity)))
        )
    return schema, configuration, query, delta


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(inputs=delta_inputs(), data=st.data())
def test_holds_through_matches_evaluation_on_grown_copy(inputs, data):
    schema, configuration, query, delta = inputs
    before = _state(configuration)
    expected = evaluate_boolean(query, configuration.extended_with(delta))
    assert holds_through(query, configuration, delta) == expected
    assert _state(configuration) == before

    # A fact that cannot be added (wrong arity) anywhere in the delta: the
    # call may raise, but the configuration is restored either way, and an
    # answer it does give is the answer over the valid facts.
    relation = data.draw(st.sampled_from(schema.relations))
    bad = Fact(relation.name, ("bad",) * (relation.arity + 1))
    position = data.draw(st.integers(min_value=0, max_value=len(delta)))
    try:
        answer = holds_through(query, configuration, delta[:position] + [bad] + delta[position:])
    except SchemaError:
        pass
    else:
        assert answer == expected
    assert _state(configuration) == before
    with pytest.raises(SchemaError):
        with configuration.extended_view(delta + [bad]):
            pass
    assert _state(configuration) == before


# --------------------------------------------------------------------------- #
# Containment witness search vs. the copy-then-evaluate reference
# --------------------------------------------------------------------------- #
def _reference_non_containment_witness(query1, query2, schema, configuration, options):
    """The witness search as it was before the monotone prune ran through the
    target facts: copy the configuration grown by each candidate's targets and
    evaluate ``query2`` on the copy, then on each plan's final configuration."""
    configuration = configuration.with_constants(
        query1.constants_with_domains() | query2.constants_with_domains()
    )
    if evaluate_boolean(query2, configuration):
        return None
    if evaluate_boolean(query1, configuration):
        return ContainmentWitness(configuration.copy(), ())
    disjuncts = (
        (query1,)
        if isinstance(query1, ConjunctiveQuery)
        else query1.to_ucq(max_disjuncts=options.max_disjuncts)
    )
    for disjunct in disjuncts:
        fresh_count = (
            options.fresh_per_domain
            if options.fresh_per_domain is not None
            else max(1, len(disjunct.variables))
        )
        for _first, target_facts in iter_witness_assignments(
            disjunct.atoms,
            disjunct.variable_domains(),
            configuration,
            None,
            schema=schema,
            fresh_per_domain=fresh_count,
            max_assignments=options.max_assignments,
            classifier=SubgoalClassifier(disjunct.atoms, configuration, schema),
        ):
            if not target_facts:
                continue
            if evaluate_boolean(query2, configuration.extended_with(target_facts)):
                continue
            for plan in iter_production_plans(
                schema,
                configuration,
                target_facts,
                max_support_facts=options.max_support_facts,
                max_plans=options.max_plans_per_assignment,
                support_value_choices=options.support_value_choices,
                max_nodes=options.max_nodes,
            ):
                final = plan.final_configuration()
                if not evaluate_boolean(query2, final):
                    return ContainmentWitness(final, plan.all_new_facts())
    return None


@st.composite
def containment_inputs(draw):
    """A random schema and configuration with two random CQs or PQs."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    schema = random_schema(
        relations=3,
        max_arity=2,
        domains=2,
        dependent_ratio=draw(st.sampled_from([0.0, 0.6])),
        seed=seed,
    )
    instance = random_instance(schema, tuples_per_relation=3, value_pool=3, seed=seed)
    fraction = draw(st.sampled_from([0.0, 0.3, 0.6]))
    configuration = random_configuration(instance, fraction=fraction, seed=seed)
    query1 = _random_query(draw, schema, seed)
    query2 = _random_query(draw, schema, seed + 1)
    return schema, configuration, query1, query2


#: Small plan budgets keep each example fast; both searches share them.
PINNING_OPTIONS = ContainmentOptions(max_plans_per_assignment=4, max_nodes=200)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inputs=containment_inputs())
def test_containment_witness_matches_copy_then_evaluate_reference(inputs):
    schema, configuration, query1, query2 = inputs
    before = _state(configuration)
    witness = find_non_containment_witness(
        query1, query2, schema, configuration, PINNING_OPTIONS
    )
    reference = _reference_non_containment_witness(
        query1, query2, schema, configuration, PINNING_OPTIONS
    )
    assert _state(configuration) == before
    assert (witness is None) == (reference is None)
    if witness is not None:
        assert witness.new_facts == reference.new_facts
        assert witness.configuration == reference.configuration
        assert witness.configuration.fingerprint() == reference.configuration.fingerprint()


def test_contained_chain_at_size_40_checks_candidates_without_copies(monkeypatch):
    """``L1(x,y), L2(y,'t') ⊑ L2(z,'t')`` over a 40-fact chain: every one of
    the 14,885 candidates is pruned through its target facts, so the only
    configuration copy is the one adding the query constants, and the
    decision takes a fraction of a second."""
    schema = chain_schema(2)
    configuration = Configuration.empty(schema)
    for index in range(40):
        configuration.add("L1", (f"a{index}", f"b{index}"))
        configuration.add("L2", (f"b{index}", f"c{index}"))
    query1 = parse_cq(schema, "L1(x, y), L2(y, 't')")
    query2 = parse_cq(schema, "L2(z, 't')")
    copies = []
    original_copy = Configuration.copy

    def counting_copy(self):
        copies.append(self)
        return original_copy(self)

    monkeypatch.setattr(Configuration, "copy", counting_copy)
    started = time.perf_counter()
    assert decide_containment(query1, query2, schema, configuration)
    elapsed = time.perf_counter() - started
    assert len(copies) == 1
    assert elapsed < 0.5
