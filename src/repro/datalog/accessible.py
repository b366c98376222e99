"""The Chang–Li accessible-part construction.

Section 5 of the paper recalls that, for any conjunctive query and any set of
access patterns, one can write a *monadic Datalog* program whose intensional
predicates describe the accessible constants of each abstract domain, and
from which the "accessible part" of an instance — the facts that can ever be
revealed by well-formed access sequences — is derived.

This module builds that program for a schema and evaluates it against a
hidden instance and an initial configuration.  It is used by:

* the exhaustive dynamic-answering strategy of :mod:`repro.planner.dynamic`
  (the approach of Li [18]), which retrieves the whole accessible part;
* tests, as an independent characterisation of reachability.

Construction
------------
For every abstract domain ``D`` there is a monadic predicate ``acc_dom__D``;
for every relation ``R`` there is a predicate ``acc_rel__R`` of the same
arity.  The rules are:

* seed facts ``acc_dom__D(c)`` for every ``(c, D)`` in the active domain of
  the initial configuration;
* seed facts ``acc_rel__R(t)`` for every fact ``R(t)`` of the configuration;
* for every access method on ``R`` with input places ``i1..ik`` (dependent):
  ``acc_rel__R(x1..xn) :- R(x1..xn), acc_dom__D1(x_i1), ..., acc_dom__Dk(x_ik)``;
* for every *independent* access method on ``R``: ``acc_rel__R(x̄) :- R(x̄)``
  (any binding can be guessed, so every matching fact is obtainable);
* for every relation ``R`` and place ``j`` of domain ``D``:
  ``acc_dom__D(x_j) :- acc_rel__R(x̄)`` (every constant of a revealed fact
  becomes available for later bindings).
"""

from __future__ import annotations

from typing import Dict, Set

from repro.data import Configuration, Instance
from repro.datalog.engine import Database, evaluate_program
from repro.datalog.program import Literal, Program, Rule
from repro.queries.terms import Variable
from repro.schema import Schema

__all__ = [
    "domain_predicate",
    "relation_predicate",
    "accessible_program",
    "accessible_part",
    "accessible_values",
]


def domain_predicate(domain_name: str) -> str:
    """Name of the monadic predicate describing accessible constants of a domain."""
    return f"acc_dom__{domain_name}"


def relation_predicate(relation_name: str) -> str:
    """Name of the predicate describing accessible facts of a relation."""
    return f"acc_rel__{relation_name}"


def accessible_program(schema: Schema) -> Program:
    """Build the accessible-part Datalog program for ``schema``."""
    program = Program()
    for relation in schema.relations:
        variables = tuple(Variable(f"x{i}") for i in range(relation.arity))
        relation_literal = Literal(relation.name, variables)
        accessible_literal = Literal(relation_predicate(relation.name), variables)

        for method in schema.methods_for(relation):
            body = [relation_literal]
            if method.dependent:
                for place in method.input_places:
                    domain = relation.domain_of(place)
                    body.append(
                        Literal(domain_predicate(domain.name), (variables[place],))
                    )
            program.add(Rule(accessible_literal, tuple(body)))

        # Every constant of an accessible fact becomes an accessible constant.
        for place in range(relation.arity):
            domain = relation.domain_of(place)
            program.add(
                Rule(
                    Literal(domain_predicate(domain.name), (variables[place],)),
                    (accessible_literal,),
                )
            )
    return program


def _seed_database(instance: Instance, configuration: Configuration) -> Database:
    # The cached frozen views of the indexed instance are handed to the engine
    # as-is; IndexedDatabase copies them into its own indexed storage.
    database: Database = {}
    for relation in instance.schema.relations:
        database[relation.name] = instance.tuples(relation)
    for value, domain in configuration.active_domain():
        database.setdefault(domain_predicate(domain.name), set()).add((value,))
    for fact in configuration.facts():
        database.setdefault(relation_predicate(fact.relation), set()).add(fact.values)
    return database


def accessible_part(instance: Instance, configuration: Configuration) -> Instance:
    """The sub-instance of ``instance`` reachable by well-formed access paths.

    The result contains every fact that some (finite) sequence of well-formed
    accesses starting from ``configuration`` can reveal, assuming sources
    answer exactly.  Facts of the initial configuration are always included.
    """
    schema = instance.schema
    program = accessible_program(schema)
    database = evaluate_program(program, _seed_database(instance, configuration))
    result = Instance(schema)
    for fact in configuration.facts():
        result.add_fact(fact)
    for relation in schema.relations:
        for values in database.get(relation_predicate(relation.name), set()):
            result.add(relation.name, values)
    return result


def accessible_values(
    instance: Instance, configuration: Configuration
) -> Dict[str, Set[object]]:
    """Accessible constants per abstract-domain name."""
    schema = instance.schema
    program = accessible_program(schema)
    database = evaluate_program(program, _seed_database(instance, configuration))
    result: Dict[str, Set[object]] = {}
    for domain in schema.domains():
        rows = database.get(domain_predicate(domain.name), set())
        result[domain.name] = {row[0] for row in rows}
    return result
